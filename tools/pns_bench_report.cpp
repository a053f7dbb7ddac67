// pns_bench_report -- machine-readable performance trajectory runner.
//
// Executes the google-benchmark micro suite (bench_micro_hotpaths, when it
// was built) plus wall-clock timings of the `table2` sweep -- exact and
// tabulated PV, the rk23pi integrator (with the PV implicit-solve
// accounting: iteration counts, memo/table hit rates and warm starts),
// and the same sweep on the 2-domain biglittle platform (the
// joint-ladder dispatch tax) -- and writes one JSON document
// (BENCH_<n>.json) that future reports are compared against -- the
// repo's record that the hot path stays fast:
//
//   pns_bench_report                        # full run, writes BENCH_12.json
//   pns_bench_report --quick --out q.json   # CI smoke (~seconds)
//
// scripts/check_bench_regression.py diffs a fresh report against the
// checked-in baseline. The sweep timing runs in-process; the micro suite
// is spawned as the sibling bench_micro_hotpaths binary so the numbers
// are exactly what a developer gets running it by hand.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ehsim/sources.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/presets.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "util/json.hpp"

namespace {

using namespace pns;

struct Options {
  std::string out_path = "BENCH_12.json";
  std::string bench_bin;  // empty = <dir of argv[0]>/bench_micro_hotpaths
  double minutes = 60.0;
  unsigned threads = 0;
  bool quick = false;
};

struct MicroResult {
  std::string name;
  double real_time_ns = 0.0;
  double cpu_time_ns = 0.0;
  std::uint64_t iterations = 0;
};

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

std::string strip_quotes(std::string s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
    return s.substr(1, s.size() - 2);
  return s;
}

/// Runs the micro-benchmark binary with CSV output and parses the rows.
/// Returns false (with `error` set) when the binary is missing or fails;
/// the report then records the sweep timings alone.
bool run_micro_suite(const Options& opt, std::vector<MicroResult>& out,
                     std::string& error) {
  const std::string csv_path = opt.out_path + ".micro.csv";
  std::string cmd = "\"" + opt.bench_bin + "\"";
  if (opt.quick) cmd += " --benchmark_min_time=0.05";
  cmd += " --benchmark_format=csv > \"" + csv_path + "\" 2> /dev/null";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    error = "running '" + opt.bench_bin + "' failed (exit " +
            std::to_string(rc) + "); was it built?";
    std::remove(csv_path.c_str());
    return false;
  }
  std::ifstream in(csv_path);
  std::string line;
  bool seen_header = false;
  while (std::getline(in, line)) {
    if (line.rfind("name,", 0) == 0) {
      seen_header = true;
      continue;
    }
    if (!seen_header || line.empty()) continue;
    std::vector<std::string> cells;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    // name,iterations,real_time,cpu_time,time_unit,...
    if (cells.size() < 5) continue;
    MicroResult r;
    r.name = strip_quotes(cells[0]);
    r.iterations = std::strtoull(cells[1].c_str(), nullptr, 10);
    const double scale = unit_to_ns(cells[4]);
    r.real_time_ns = std::strtod(cells[2].c_str(), nullptr) * scale;
    r.cpu_time_ns = std::strtod(cells[3].c_str(), nullptr) * scale;
    out.push_back(std::move(r));
  }
  std::remove(csv_path.c_str());
  if (out.empty()) {
    error = "no benchmark rows parsed from " + opt.bench_bin;
    return false;
  }
  return true;
}

struct SweepTiming {
  double wall_s = 0.0;
  double simulated_s = 0.0;
  std::size_t scenarios = 0;
  std::size_t failed = 0;
  unsigned threads = 0;
  /// PV implicit-solve accounting summed over the sweep's runs -- where
  /// the time goes.
  ehsim::PvSolveStats pv;
};

SweepTiming time_table2(const Options& opt, ehsim::PvSource::Mode mode,
                        const std::string& integrator = "rk23",
                        const std::string& platform = "") {
  auto sw = sweep::table2_sweep(opt.minutes, {42, 43, 44});
  sw.base.pv_mode = mode;
  sw.base.integrator = sweep::IntegratorSpec::parse(integrator);
  if (!platform.empty())
    sw.base.platform_spec = sweep::PlatformSpec::parse(platform);
  const auto specs = sw.expand();

  sweep::SweepRunnerOptions ropt;
  ropt.threads = opt.threads;
  sweep::SweepRunner runner(ropt);

  SweepTiming t;
  t.scenarios = specs.size();
  t.threads = runner.effective_threads(specs.size());
  for (const auto& s : specs) t.simulated_s += s.duration();

  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner.run(specs);
  t.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  t.failed = sweep::Aggregator(outcomes).failed_count();
  for (const auto& o : outcomes)
    if (o.ok) t.pv += o.result.metrics.pv_solve;
  return t;
}

void write_sweep(JsonWriter& w, const SweepTiming& t) {
  w.begin_object();
  w.kv("scenarios", t.scenarios);
  w.kv("failed", t.failed);
  w.kv("threads", static_cast<std::uint64_t>(t.threads));
  w.kv("wall_s", t.wall_s);
  w.kv("simulated_s", t.simulated_s);
  w.kv("sim_realtime_ratio", t.wall_s > 0.0 ? t.simulated_s / t.wall_s : 0.0);
  if (t.pv.calls > 0) {
    const double solves = static_cast<double>(t.pv.newton_solves);
    w.key("pv_solve");
    w.begin_object();
    w.kv("calls", t.pv.calls);
    w.kv("memo_hits", t.pv.memo_hits);
    w.kv("table_hits", t.pv.table_hits);
    w.kv("newton_solves", t.pv.newton_solves);
    w.kv("newton_iterations", t.pv.newton_iterations);
    w.kv("warm_starts", t.pv.warm_starts);
    w.kv("iters_per_solve",
         solves > 0.0 ? static_cast<double>(t.pv.newton_iterations) / solves
                      : 0.0);
    w.kv("memo_hit_rate",
         static_cast<double>(t.pv.memo_hits) /
             static_cast<double>(t.pv.calls));
    w.end_object();
  }
  w.end_object();
}

void print_pv(const char* label, const SweepTiming& t) {
  if (t.pv.calls == 0) return;
  const double solves = static_cast<double>(t.pv.newton_solves);
  std::printf(
      "pv solve %-10s %10llu calls: %5.1f%% memo, %5.1f%% table, "
      "%llu newton (%.2f iters/solve, %5.1f%% warm)\n",
      label, static_cast<unsigned long long>(t.pv.calls),
      100.0 * static_cast<double>(t.pv.memo_hits) /
          static_cast<double>(t.pv.calls),
      100.0 * static_cast<double>(t.pv.table_hits) /
          static_cast<double>(t.pv.calls),
      static_cast<unsigned long long>(t.pv.newton_solves),
      solves > 0.0 ? static_cast<double>(t.pv.newton_iterations) / solves
                   : 0.0,
      solves > 0.0 ? 100.0 * static_cast<double>(t.pv.warm_starts) / solves
                   : 0.0);
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "options:\n"
      "  --out PATH       output JSON path (default BENCH_12.json)\n"
      "  --bench-bin P    micro-benchmark binary (default: next to this "
      "binary)\n"
      "  --minutes M      simulated window of the table2 timing "
      "(default 60)\n"
      "  --threads N      sweep worker threads (default: hardware)\n"
      "  --quick          CI smoke mode: 2-minute windows, short micro "
      "reps\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out")
      opt.out_path = next();
    else if (arg == "--bench-bin")
      opt.bench_bin = next();
    else if (arg == "--minutes")
      opt.minutes = std::atof(next());
    else if (arg == "--threads")
      opt.threads = static_cast<unsigned>(std::atoi(next()));
    else if (arg == "--quick")
      opt.quick = true;
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.quick) opt.minutes = 2.0;
  if (opt.bench_bin.empty()) {
    std::string self = argv[0];
    const auto slash = self.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string(".") : self.substr(0, slash);
    opt.bench_bin = dir + "/bench_micro_hotpaths";
  }

  std::vector<MicroResult> micro;
  std::string micro_error;
  const bool micro_ok = run_micro_suite(opt, micro, micro_error);
  if (!micro_ok)
    std::fprintf(stderr, "warning: micro suite skipped: %s\n",
                 micro_error.c_str());

  std::fprintf(stderr, "timing table2 sweep (exact PV, %.0f min)...\n",
               opt.minutes);
  const auto exact = time_table2(opt, ehsim::PvSource::Mode::kExact);
  std::fprintf(stderr, "timing table2 sweep (tabulated PV, %.0f min)...\n",
               opt.minutes);
  const auto tab = time_table2(opt, ehsim::PvSource::Mode::kTabulated);
  std::fprintf(stderr, "timing table2 sweep (rk23pi, %.0f min)...\n",
               opt.minutes);
  const auto pi =
      time_table2(opt, ehsim::PvSource::Mode::kExact, "rk23pi");
  std::fprintf(stderr,
               "timing table2 sweep (biglittle platform, %.0f min)...\n",
               opt.minutes);
  const auto biglittle =
      time_table2(opt, ehsim::PvSource::Mode::kExact, "rk23", "biglittle");
  std::ofstream out(opt.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
    return 1;
  }
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "pns-bench-report-v1");
  w.kv("generated_unix", static_cast<std::int64_t>(std::time(nullptr)));
  w.kv("quick", opt.quick);
  w.key("table2");
  w.begin_object();
  w.kv("minutes", opt.minutes);
  w.key("exact");
  write_sweep(w, exact);
  w.key("tabulated");
  write_sweep(w, tab);
  w.key("rk23pi");
  write_sweep(w, pi);
  w.end_object();
  // Same schemes and windows on the compiled 2-domain platform: what
  // the joint-ladder dispatch and per-domain accounting cost relative
  // to table2.exact. Own section so the mono trajectory stays
  // key-compatible with earlier BENCH_*.json reports.
  w.key("table2_biglittle");
  w.begin_object();
  w.kv("minutes", opt.minutes);
  w.kv("platform", "biglittle");
  w.key("exact");
  write_sweep(w, biglittle);
  w.end_object();
  w.key("micro");
  if (micro_ok) {
    w.begin_array();
    for (const auto& r : micro) {
      w.begin_object();
      w.kv("name", r.name);
      w.kv("iterations", r.iterations);
      w.kv("real_time_ns", r.real_time_ns);
      w.kv("cpu_time_ns", r.cpu_time_ns);
      w.end_object();
    }
    w.end_array();
  } else {
    w.null();
    w.kv("micro_error", micro_error);
  }
  w.end_object();
  out << "\n";

  std::printf("wrote %s\n", opt.out_path.c_str());
  std::printf("table2 exact: %.2f s wall (%.0fx realtime); tabulated: "
              "%.2f s wall (%.0fx realtime); rk23pi: %.2f s wall "
              "(%.0fx realtime)\n",
              exact.wall_s,
              exact.wall_s > 0 ? exact.simulated_s / exact.wall_s : 0.0,
              tab.wall_s, tab.wall_s > 0 ? tab.simulated_s / tab.wall_s : 0.0,
              pi.wall_s, pi.wall_s > 0 ? pi.simulated_s / pi.wall_s : 0.0);
  print_pv("exact:", exact);
  print_pv("tabulated:", tab);
  print_pv("rk23pi:", pi);
  std::printf("table2 biglittle: %.2f s wall (%.0fx realtime)\n",
              biglittle.wall_s,
              biglittle.wall_s > 0
                  ? biglittle.simulated_s / biglittle.wall_s
                  : 0.0);
  const bool sweeps_ok = exact.failed == 0 && tab.failed == 0 &&
                         pi.failed == 0 && biglittle.failed == 0;
  return sweeps_ok ? 0 : 1;
}
