// pns_perfbench: one run of one benchmark workload (see ../README.md).
//
//   pns_perfbench --workload table2|capacitance_fast|param_grid
//                 [--seed N] [--threads N] [--out DIR] [--traced]
//                 [--minutes M]
//
// The default (timed) run goes through the same public entry points as
// pns_sweep and bench_param_selection and reports host-time end-to-end
// metrics measured from the start of main(). --traced instead reports
// the per-layer split (traced.hpp). Every line of output is one of
//
//   metric NAME VALUE UNIT
//   check NAME pass|fail DETAIL     (output checks)
//   claim NAME pass|fail DETAIL     (paper predicates)
//   rows ATTEMPTED FAILED
//   digest CRC32-OF-THE-PUBLISHED-BYTES
//
// The exit status is non-zero only when the run itself could not be
// made; failed checks and claims are reported, not fatal.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "opt/grid_search.hpp"
#include "sweep/runner.hpp"
#include "traced.hpp"
#include "util/crc32.hpp"
#include "workloads.hpp"

namespace {

using namespace pns;
using namespace perfbench;

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pns_perfbench: %s\n"
               "usage: pns_perfbench --workload "
               "table2|capacitance_fast|param_grid [--seed N] [--threads N]"
               " [--out DIR] [--traced] [--minutes M]\n",
               why);
  std::exit(2);
}

bool write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return static_cast<bool>(out.flush());
}

/// The timed run: setup, the workload's runner/search passes and the
/// published files, then the output checks outside the timed span.
void run_timed(const Options& opt, const Prepared& p, Clock::time_point t0,
               Clock::time_point t_setup, Report& report) {
  std::string bytes;
  Clock::time_point t_end;
  double cpu = 0.0;
  double rss = 0.0;
  auto stop = [&] {
    t_end = Clock::now();
    cpu = process_cpu_s();
    rss = peak_rss_mb();
  };
  if (!p.studies.empty()) {
    std::vector<opt::SearchResult> first, resumed;
    for (const GridStudy& study : p.studies) {
      first.push_back(opt::grid_search(study.objective, p.grid));
      resumed.push_back(opt::grid_search(study.objective, p.grid));
      bytes += grid_bytes(resumed.back());
    }
    const bool wrote = write_file(output_path(opt, ".csv"), bytes);
    stop();
    report.check({"published", wrote, ""});
    std::string first_bytes;
    for (std::size_t i = 0; i < p.studies.size(); ++i) {
      first_bytes += grid_bytes(first[i]);
      if (!opt.minutes)
        report.claim(section3_claim(opt, p.studies[i], resumed[i]));
      for (const opt::ScoredParams& e : first[i].evaluated)
        report.failed_rows += e.score < 0.0 ? 1 : 0;
    }
    report.check({"param_grid.resume_identical", first_bytes == bytes, ""});
    report.rows = row_count(p);
  } else {
    sweep::SweepRunnerOptions ro;
    ro.threads = opt.threads;
    const auto outcomes = sweep::SweepRunner(ro).run(p.specs);
    const sweep::Aggregator agg(outcomes);
    const bool wrote =
        agg.write_csv_file(output_path(opt, ".csv").string()) &&
        agg.write_json_file(output_path(opt, ".json").string());
    stop();
    bytes = sweep_bytes(agg);
    report.check({"published", wrote, ""});
    if (opt.workload == Workload::kTable2 && !opt.minutes)
      report.claim(table2_claim(agg.rows()));
    report.rows = p.specs.size();
    report.failed_rows = agg.failed_count();
  }
  const double wall = seconds_between(t0, t_end);
  report.metric("wall_s", wall, "s");
  report.metric("cpu_s", cpu, "s");
  report.metric("setup_s", seconds_between(t0, t_setup), "s");
  report.metric("peak_rss_mb", rss, "MB");
  report.metric("sweep.parallelism", cpu / wall, "ratio");
  report.digest = crc32_hex(crc32(bytes));
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t0 = Clock::now();

  Options opt;
  opt.threads = online_cpus();
  bool traced = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const auto w = parse_workload(next());
        if (!w) usage("unknown workload");
        opt.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--threads") {
        opt.threads = static_cast<unsigned>(std::stoul(next()));
        if (opt.threads == 0) usage("--threads must be at least 1");
      } else if (arg == "--out") {
        opt.out_dir = next();
      } else if (arg == "--minutes") {
        opt.minutes = std::stod(next());
        if (!(*opt.minutes > 0.0)) usage("--minutes must be positive");
      } else if (arg == "--traced") {
        traced = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("malformed value for " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  Report report;
  try {
    std::filesystem::create_directories(opt.out_dir);
    const Prepared p = prepare(opt);
    const Clock::time_point t_setup = Clock::now();
    if (traced)
      run_traced(opt, p, report);
    else
      run_timed(opt, p, t0, t_setup, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pns_perfbench: %s\n", e.what());
    return 1;
  }

  for (const Report::Metric& m : report.metrics)
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  auto print = [](const char* kind, const std::vector<Check>& list) {
    for (const Check& c : list)
      std::printf("%s %s %s %s\n", kind, c.name.c_str(),
                  c.pass ? "pass" : "fail", c.detail.c_str());
  };
  print("check", report.checks);
  print("claim", report.claims);
  std::printf("rows %zu %zu\n", report.rows, report.failed_rows);
  std::printf("digest %s\n", report.digest.c_str());
  return 0;
}
