// pns_sweep -- batch scenario-sweep driver.
//
// Runs a built-in named sweep (the paper's headline experiment families)
// across a thread pool and prints the aggregate table, optionally dumping
// CSV/JSON for downstream analysis:
//
//   pns_sweep table2                # Table II: schemes x seeds
//   pns_sweep capacitance           # Table I-style: buffer sizes x weather
//   pns_sweep fig6 --threads 4      # Fig. 6: shadow depths x {static,pns}
//   pns_sweep weather --json out.json --csv out.csv
//
// Control and source selection are open, registry-driven axes addressed
// by spec strings (docs/sweeps.md documents the grammar; `pns_sweep list`
// prints every registered kind and its parameters):
//
//   pns_sweep table2 --control pns --control gov:ondemand:period=0.05
//   pns_sweep quick --source flicker:period=30,depth=0.5
//   pns_sweep quick --source trace:file=day.csv
//
// Production-sweep features (docs/sweeps.md has the full workflow):
//
//   pns_sweep table2 --journal t2.jsonl            # checkpoint every row
//   pns_sweep table2 --journal t2.jsonl --resume   # continue after a kill
//   pns_sweep table2 --shard 0/4 --journal p0.jsonl  # 1 of 4 workers
//   pns_sweep merge --csv out.csv p0.jsonl p1.jsonl p2.jsonl p3.jsonl
//   pns_sweep capacitance --refine --refine-metric brownouts
//
// Sharded runs are the way to spread one sweep over several machines:
// each machine runs one --shard K/N into its own journal, and `merge`
// folds the journals into output byte-identical to a single local run.
//
// Sweep outputs are bit-identical across thread counts, interruptions and
// shard counts (verified by tests/sweep/), so --threads/--shard/--resume
// only change wall-clock and durability, never the published aggregate.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ehsim/sources.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/journal.hpp"
#include "sweep/presets.hpp"
#include "sweep/refine.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "util/json.hpp"
#include "util/params.hpp"

namespace {

using namespace pns;

struct Options {
  std::string sweep_name;
  unsigned threads = 0;  // 0 = hardware_concurrency
  double minutes = 60.0;
  std::string csv_path;
  std::string json_path;
  bool quiet = false;
  ehsim::PvSource::Mode pv_mode = ehsim::PvSource::Mode::kExact;

  // Control/source overrides (spec strings, repeatable -> axes).
  std::vector<sweep::ControlSpec> controls;
  std::vector<sweep::SourceSpec> sources;

  // Integration engine (whole-sweep knob, like --pv-mode).
  sweep::IntegratorSpec integrator;

  // Platform topology (whole-sweep knob, like --pv-mode).
  sweep::PlatformSpec platform;

  // Checkpointing / sharding.
  std::string journal_path;
  bool resume = false;
  bool sharded = false;
  std::size_t shard_k = 0;
  std::size_t shard_n = 1;

  // Adaptive refinement.
  bool refine = false;
  sweep::RefineOptions refine_options;

  /// fsync journal appends (sweep runs) so acknowledged rows survive a
  /// machine crash; a disk round-trip per row.
  bool fsync = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s <sweep> [options]\n"
      "       %s list\n"
      "       %s merge [--csv PATH] [--json PATH] [--journal PATH] "
      "[--quiet] JOURNAL...\n"
      "\n"
      "sweeps:\n",
      argv0, argv0, argv0);
  for (const auto& p : sweep::sweep_presets())
    std::printf("  %-12s %s\n", p.name.c_str(), p.summary.c_str());
  std::printf(
      "\n"
      "options:\n"
      "  --control S   replace the sweep's control axis with spec string S\n"
      "                (repeatable; e.g. pns:v_q=0.04, gov:ondemand:"
      "period=0.05,\n"
      "                static:opp=4 -- 'list' prints every kind)\n"
      "  --source S    replace the sweep's source axis with spec string S\n"
      "                (repeatable; e.g. shadow:depth=0.2, trace:file=x.csv,"
      "\n"
      "                flicker:period=30,depth=0.5)\n"
      "  --threads N   worker threads (default 0: hardware concurrency)\n"
      "  --minutes M   simulated window length where applicable "
      "(default 60)\n"
      "  --csv PATH    write the aggregate rows as CSV\n"
      "  --json PATH   write the aggregate rows as JSON\n"
      "  --pv-mode M   PV solve mode: exact (default; Newton solved to\n"
      "                1e-12, deterministic) or tabulated (interpolation\n"
      "                table with a measured error bound)\n"
      "  --integrator S  integration engine spec string: rk23pi\n"
      "                [:rtol=...,seg=...,max_step=...] (default; PI step\n"
      "                control + dense events + coasting) or rk23 (the\n"
      "                legacy engine and reference numerics, ~6x\n"
      "                slower);\n"
      "                docs/performance.md has the grammar\n"
      "  --platform S  platform topology spec string: mono (default,\n"
      "                the paper's single-domain board) or a multi-domain\n"
      "                kind such as biglittle[:little_cores=4,big_cores=4,\n"
      "                arbiter=demand] (docs/platforms.md has the grammar)\n"
      "  --journal P   append each completed scenario to the checkpoint\n"
      "                journal at P (JSON lines; see docs/sweeps.md);\n"
      "                with merge: write the canonical journal\n"
      "                (index order) of the full row set to P\n"
      "  --fsync       fsync the journal after every append, so rows\n"
      "                survive a machine crash (requires --journal)\n"
      "  --resume      reuse completed rows from an existing --journal\n"
      "                instead of refusing to overwrite it\n"
      "  --shard K/N   run only the K-th (0-based) of N contiguous spec\n"
      "                ranges; requires --journal, fold partial journals\n"
      "                with the merge subcommand\n"
      "  --refine      after the pass, bisect capacitance intervals whose\n"
      "                adjacent rows diverge (adaptive axis refinement)\n"
      "  --refine-metric M  aggregate column compared (default brownouts)\n"
      "  --refine-tol T     relative divergence threshold (default 0.25)\n"
      "  --refine-depth D   maximum bisection rounds (default 3)\n"
      "  --quiet       suppress per-scenario progress\n");
}

void list_sweeps(std::FILE* os) {
  std::fprintf(os, "valid sweeps:");
  for (const auto& p : sweep::sweep_presets())
    std::fprintf(os, " %s", p.name.c_str());
  std::fprintf(os, " (or the 'list'/'merge' subcommands)\n");
}

void print_params(const std::vector<ParamInfo>& params) {
  for (const auto& p : params) {
    std::string key = p.key + "=<" + p.type + ">";
    std::printf("      %-28s %s", key.c_str(), p.help.c_str());
    if (!p.default_value.empty())
      std::printf(" (default %s)", p.default_value.c_str());
    std::printf("\n");
  }
}

/// The `list` subcommand: every registered control/source kind, its
/// accepted parameters and the sweep presets -- generated from the
/// registries, so it cannot go stale.
int run_list() {
  std::printf("controls (--control KIND[:key=value,...]):\n");
  for (const auto& e : sweep::ControlRegistry::instance().entries()) {
    std::printf("  %-16s %s\n", e.kind.c_str(), e.summary.c_str());
    print_params(e.params);
  }
  std::printf("\nsources (--source KIND[:key=value,...]):\n");
  for (const auto& e : sweep::SourceRegistry::instance().entries()) {
    std::printf("  %-16s %s\n", e.kind.c_str(), e.summary.c_str());
    print_params(e.params);
  }
  std::printf("\nintegrators (--integrator KIND[:key=value,...]):\n");
  const std::string default_integrator = sweep::IntegratorSpec{}.kind;
  for (const auto& e : sweep::IntegratorRegistry::instance().entries()) {
    const bool is_default = e.kind == default_integrator;
    std::printf("  %-16s %s%s\n", e.kind.c_str(), e.summary.c_str(),
                is_default ? " (default)" : "");
    print_params(e.params);
  }
  std::printf("\nplatforms (--platform KIND[:key=value,...]):\n");
  const std::string default_platform = sweep::PlatformSpec{}.kind;
  for (const auto& e : sweep::PlatformRegistry::instance().entries()) {
    const bool is_default = e.kind == default_platform;
    std::printf("  %-16s %s%s\n", e.kind.c_str(), e.summary.c_str(),
                is_default ? " (default)" : "");
    print_params(e.params);
  }
  std::printf("\nsweep presets:\n");
  for (const auto& p : sweep::sweep_presets())
    std::printf("  %-16s %s\n", p.name.c_str(), p.summary.c_str());
  std::printf("\nrefine metrics (--refine-metric):");
  for (const auto& name : sweep::refine_metric_names())
    std::printf(" %s", name.c_str());
  std::printf("\n");
  return 0;
}

/// Writes CSV/JSON side outputs; returns false when any write failed.
bool write_outputs(const sweep::Aggregator& agg, const Options& opt) {
  bool ok = true;
  if (!opt.csv_path.empty()) {
    if (agg.write_csv_file(opt.csv_path)) {
      std::printf("wrote %s\n", opt.csv_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      ok = false;
    }
  }
  if (!opt.json_path.empty()) {
    if (agg.write_json_file(opt.json_path)) {
      std::printf("wrote %s\n", opt.json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Prints the journal reader's per-line notes (torn, malformed, unknown
/// or quarantined lines) to stderr -- even under --quiet, because each
/// names a row that was lost and had to be re-run or is missing.
void print_journal_notes(const std::vector<std::string>& notes) {
  for (const auto& note : notes) std::fprintf(stderr, "%s\n", note.c_str());
}

/// Folds shard journals back into the canonical aggregate.
int run_merge(const std::vector<std::string>& journals, const Options& opt) {
  if (journals.empty()) {
    std::fprintf(stderr, "merge: no journal files given\n");
    return 2;
  }
  try {
    sweep::JournalContents first = sweep::read_journal(journals[0]);
    print_journal_notes(first.notes);
    std::map<std::size_t, sweep::SummaryRow> rows = std::move(first.rows);
    for (std::size_t i = 1; i < journals.size(); ++i) {
      sweep::JournalContents part =
          sweep::read_journal(journals[i], first.header);
      print_journal_notes(part.notes);
      // insert (not assign): on an index collision the earlier journal
      // wins, but completed rows of a deterministic sweep are identical
      // anyway.
      rows.insert(part.rows.begin(), part.rows.end());
    }
    if (rows.size() != first.header.total) {
      std::fprintf(stderr,
                   "merge: journals cover %zu of %zu scenarios of sweep "
                   "'%s' -- missing shards or an interrupted worker\n",
                   rows.size(), first.header.total,
                   first.header.sweep.c_str());
      return 1;
    }
    // --journal: the canonical (index-ordered, timing-free) journal of
    // the merged sweep -- the byte-comparable form of its row set.
    if (!opt.journal_path.empty())
      sweep::write_canonical_journal(opt.journal_path, first.header, rows);

    std::vector<sweep::SummaryRow> ordered;
    ordered.reserve(rows.size());
    for (auto& [index, row] : rows) ordered.push_back(std::move(row));

    sweep::Aggregator agg(std::move(ordered));
    if (!opt.quiet) {
      std::printf("merged %zu journal(s): sweep '%s', %zu scenarios\n\n",
                  journals.size(), first.header.sweep.c_str(),
                  first.header.total);
      agg.console_table().print(std::cout);
      std::printf("\n");
    }
    if (!opt.journal_path.empty())
      std::printf("wrote %s\n", opt.journal_path.c_str());
    const bool wrote = write_outputs(agg, opt);
    return agg.failed_count() == 0 && wrote ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "merge: %s\n", e.what());
    return 1;
  }
}

/// Parses the whole of `text` as a non-negative decimal integer: digits
/// only -- no sign, space or trailing characters -- and in range of T.
template <typename T>
bool parse_count(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Parses the whole of `text` as a finite decimal number.
bool parse_finite(const std::string& text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end && std::isfinite(out);
}

bool parse_shard(const std::string& text, Options& opt) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return false;
  std::size_t k = 0;
  std::size_t n = 0;
  if (!parse_count(text.substr(0, slash), k) ||
      !parse_count(text.substr(slash + 1), n) || k >= n)
    return false;
  opt.sharded = true;
  opt.shard_k = k;
  opt.shard_n = n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    usage(argv[0]);
    return 0;
  }
  Options opt;
  opt.sweep_name = argv[1];

  if (opt.sweep_name == "list") return run_list();

  const bool merging = opt.sweep_name == "merge";
  std::vector<std::string> positional;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed numeric value is CLI misuse, refused before anything
    // runs or is written.
    auto bad_value = [&](const char* value, const char* expected) {
      std::fprintf(stderr, "invalid %s '%s': expected %s\n", arg.c_str(),
                   value, expected);
      std::exit(2);
    };
    if (arg == "--control" || arg == "--source" || arg == "--integrator" ||
        arg == "--platform") {
      // Spec strings are validated against the registries up front so a
      // typo fails in milliseconds, not after the sweep ran.
      const std::string spec = next();
      try {
        if (arg == "--control")
          opt.controls.push_back(sweep::ControlSpec::parse(spec));
        else if (arg == "--source")
          opt.sources.push_back(sweep::SourceSpec::parse(spec));
        else if (arg == "--integrator")
          opt.integrator = sweep::IntegratorSpec::parse(spec);
        else
          opt.platform = sweep::PlatformSpec::parse(spec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "invalid %s '%s': %s\n", arg.c_str(),
                     spec.c_str(), e.what());
        std::fprintf(stderr,
                     "run '%s list' for every registered kind and its "
                     "parameters\n",
                     argv[0]);
        return 2;
      }
    } else if (arg == "--threads") {
      const char* value = next();
      if (!parse_count(value, opt.threads))
        bad_value(value, "an integer >= 0 (0 = all cores)");
    } else if (arg == "--minutes") {
      const char* value = next();
      if (!parse_finite(value, opt.minutes) || opt.minutes <= 0.0)
        bad_value(value, "a finite number > 0");
    } else if (arg == "--csv")
      opt.csv_path = next();
    else if (arg == "--json")
      opt.json_path = next();
    else if (arg == "--pv-mode") {
      const std::string mode = next();
      if (mode == "exact") {
        opt.pv_mode = ehsim::PvSource::Mode::kExact;
      } else if (mode == "tabulated") {
        opt.pv_mode = ehsim::PvSource::Mode::kTabulated;
      } else {
        std::fprintf(stderr,
                     "unknown --pv-mode: %s (valid: exact, tabulated)\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--journal")
      opt.journal_path = next();
    else if (arg == "--resume")
      opt.resume = true;
    else if (arg == "--shard") {
      const std::string spec = next();
      if (!parse_shard(spec, opt)) {
        std::fprintf(stderr,
                     "invalid --shard '%s': expected K/N with 0 <= K < N "
                     "(e.g. --shard 0/4)\n",
                     spec.c_str());
        return 2;
      }
    } else if (arg == "--refine")
      opt.refine = true;
    else if (arg == "--refine-metric")
      opt.refine_options.metric = next();
    else if (arg == "--refine-tol") {
      const char* value = next();
      if (!parse_finite(value, opt.refine_options.tolerance) ||
          opt.refine_options.tolerance < 0.0)
        bad_value(value, "a finite number >= 0");
    } else if (arg == "--refine-depth") {
      const char* value = next();
      if (!parse_count(value, opt.refine_options.max_depth))
        bad_value(value, "an integer >= 0");
    } else if (arg == "--quiet")
      opt.quiet = true;
    else if (arg == "--fsync")
      opt.fsync = true;
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg.rfind("--", 0) != 0) {
      positional.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (merging) return run_merge(positional, opt);
  if (opt.fsync && opt.journal_path.empty()) {
    std::fprintf(stderr, "--fsync requires --journal\n");
    return 2;
  }

  const sweep::SweepPreset* preset =
      sweep::find_sweep_preset(opt.sweep_name);
  if (!preset) {
    std::fprintf(stderr, "unknown sweep: %s\n", opt.sweep_name.c_str());
    list_sweeps(stderr);
    return 2;
  }
  if (!positional.empty()) {
    std::fprintf(stderr,
                 "unexpected argument: %s (only merge takes journal "
                 "files)\n",
                 positional[0].c_str());
    return 2;
  }
  sweep::SweepSpec sw = preset->make(opt.minutes);
  // --control/--source replace the preset's corresponding axis wholesale;
  // repeating a flag sweeps over the given specs.
  if (!opt.controls.empty()) sw.controls = opt.controls;
  if (!opt.sources.empty()) sw.sources = opt.sources;

  // Flag consistency: refuse combinations whose output would be partial
  // or ambiguous instead of silently producing the wrong aggregate.
  if (opt.resume && opt.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal\n");
    return 2;
  }
  if (opt.sharded && opt.journal_path.empty()) {
    std::fprintf(stderr,
                 "--shard requires --journal (each worker writes a partial "
                 "journal; fold them with 'pns_sweep merge')\n");
    return 2;
  }
  if (opt.sharded && (!opt.csv_path.empty() || !opt.json_path.empty())) {
    std::fprintf(stderr,
                 "--shard produces a partial result; write the aggregate "
                 "with 'pns_sweep merge --csv/--json JOURNAL...'\n");
    return 2;
  }
  if (opt.sharded && opt.refine) {
    std::fprintf(stderr,
                 "--refine needs the full pass; run it on the merged sweep "
                 "instead of a shard\n");
    return 2;
  }
  if (opt.refine && !sweep::metric_accessor(opt.refine_options.metric)) {
    std::fprintf(stderr, "unknown --refine-metric: %s (valid:",
                 opt.refine_options.metric.c_str());
    for (const auto& name : sweep::refine_metric_names())
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }

  sw.base.pv_mode = opt.pv_mode;
  sw.base.integrator = opt.integrator;
  sw.base.platform_spec = opt.platform;

  // The journal identity pins every knob that changes what the scenarios
  // compute (window length, PV mode, control/source/integrator/platform
  // overrides) -- labels alone would not catch a --minutes mismatch
  // between the original run and the resume.
  const std::string journal_name =
      sweep::sweep_identity(opt.sweep_name, opt.minutes, opt.pv_mode,
                            opt.controls, opt.sources, opt.integrator,
                            opt.platform);

  const auto specs = sw.expand();

  const sweep::ShardRange range =
      opt.sharded ? sweep::shard_range(specs.size(), opt.shard_k, opt.shard_n)
                  : sweep::ShardRange{0, specs.size()};

  if (!opt.journal_path.empty() && !opt.resume &&
      std::ifstream(opt.journal_path).good()) {
    std::fprintf(stderr,
                 "journal %s already exists; pass --resume to continue it "
                 "or delete it to start over\n",
                 opt.journal_path.c_str());
    return 2;
  }

  sweep::SweepRunnerOptions ropt;
  ropt.threads = opt.threads;
  if (opt.fsync)
    ropt.journal_durability = sweep::JournalDurability::kFsync;
  if (!opt.quiet) {
    ropt.progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r[%zu/%zu]", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    };
  }
  sweep::SweepRunner runner(ropt);

  std::printf("sweep '%s': %zu scenarios", opt.sweep_name.c_str(),
              specs.size());
  if (opt.sharded)
    std::printf(", shard %zu/%zu -> %zu spec(s)", opt.shard_k, opt.shard_n,
                range.size());
  std::printf(" on %u thread(s)\n\n", runner.effective_threads(range.size()));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sweep::SummaryRow> rows;
  std::size_t reused = 0;
  std::size_t executed = range.size();
  try {
    if (opt.journal_path.empty()) {
      const auto outcomes = runner.run(specs);
      rows.reserve(outcomes.size());
      for (const auto& o : outcomes) rows.push_back(sweep::summarize(o));
    } else {
      auto report = runner.run_checkpointed(specs, opt.journal_path,
                                            journal_name, range);
      print_journal_notes(report.notes);
      rows = std::move(report.rows);
      reused = report.reused;
      executed = report.executed;
    }
  } catch (const sweep::JournalError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  int refine_added = 0;
  if (opt.refine) {
    sweep::RefineOptions ropts = opt.refine_options;
    const auto refined =
        sweep::refine_capacitance_axis(runner, specs, rows, ropts);
    refine_added = static_cast<int>(refined.added);
    rows = refined.rows;
    if (!opt.quiet && refined.added > 0)
      std::fprintf(stderr, "refined: +%zu scenarios over %d round(s)\n",
                   refined.added, refined.rounds);
  }

  sweep::Aggregator agg(std::move(rows));
  agg.console_table().print(std::cout);
  std::printf("\n%zu scenarios in %.2f s (%.2f scenarios/s), %zu failed",
              executed, wall, wall > 0.0 ? executed / wall : 0.0,
              agg.failed_count());
  if (reused > 0) std::printf(", %zu resumed from journal", reused);
  if (refine_added > 0) std::printf(", %d added by refinement", refine_added);
  std::printf("\n");

  const bool wrote = write_outputs(agg, opt);
  return agg.failed_count() == 0 && wrote ? 0 : 1;
}
