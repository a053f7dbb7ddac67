// The benchmark's workloads: how each paper artefact is set up through
// the public sweep/opt entry points, the canonical bytes its run
// publishes, and the output checks run on those bytes.
//
// Every workload runs at the program's defaults unless stated here; the
// benchmark seed, when given, replaces the preset's own weather seeds.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "opt/grid_search.hpp"
#include "opt/objective.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User plus system CPU seconds of this process so far, all threads.
double process_cpu_s();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

enum class Workload { kTable2, kCapacitanceFast, kParamGrid };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// One driver invocation's settings.
struct Options {
  Workload workload = Workload::kTable2;
  /// Unset: each preset's own seeds (table2 42/43/44, capacitance 42,
  /// param_grid 7). Set to n: table2 and param_grid run seeds n..n+2,
  /// capacitance_fast seeds n..n+7.
  std::optional<std::uint64_t> seed;
  unsigned threads = 1;
  std::filesystem::path out_dir = ".";
  /// Smoke window in minutes replacing the paper window; the paper
  /// predicates are skipped under it.
  std::optional<double> minutes;
};

/// One Section III search: the grid scored over one weather draw, with
/// its evaluations journalled.
struct GridStudy {
  pns::sweep::ScenarioSpec base;
  pns::opt::SweepStabilityObjective objective;
  std::filesystem::path journal;
};

/// A workload after setup: everything the runner receives.
struct Prepared {
  /// The sweeps' rows: the preset's expansion. Empty for param_grid,
  /// whose rows grid_search builds itself (see grid_rows()).
  std::vector<pns::sweep::ScenarioSpec> specs;
  // param_grid only.
  pns::opt::GridSpec grid;
  std::vector<pns::opt::ParamSet> candidates;
  std::vector<GridStudy> studies;
};

/// Registry initialisation, preset lookup, spec expansion and the lazy
/// process-wide tables the workload touches (the setup_s span). Removes
/// param_grid journals left by an earlier run.
Prepared prepare(const Options& opt);

/// param_grid's rows, study by study: one power-neutral scenario per
/// valid grid candidate, from SweepStabilityObjective::scenario_for. Only
/// the traced run needs them, so prepare() does not build them.
std::vector<pns::sweep::ScenarioSpec> grid_rows(const Prepared& p);

/// The number of rows one run of the workload evaluates.
std::size_t row_count(const Prepared& p);

/// Path of the workload's published CSV (JSON alongside, same stem).
std::filesystem::path output_path(const Options& opt, const char* ext);

/// The canonical published bytes: the Aggregator's CSV then JSON for the
/// sweeps, each study's scored grid as CSV for param_grid. The second
/// grid_bytes overload scores param_grid's rows (in grid_rows() order) as the objective would: fraction in band for
/// ok rows, -1 otherwise.
std::string sweep_bytes(const pns::sweep::Aggregator& agg);
std::string grid_bytes(const pns::opt::SearchResult& r);
std::string grid_bytes(const Prepared& p,
                       const std::vector<pns::sweep::SummaryRow>& rows);

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// What one driver invocation prints: its metrics (name, value, unit),
/// the checks it ran, its row count and the digest of its published
/// bytes.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// The paper predicates, kept apart from the output checks: they are
  /// claims about the presets' own seeds and need not hold for others.
  std::vector<Check> claims;
  std::size_t rows = 0;
  std::size_t failed_rows = 0;
  std::string digest;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(Check c) { checks.push_back(std::move(c)); }
  void claim(Check c) { claims.push_back(std::move(c)); }
};

/// Table II: PNS survives the window and completes the most
/// instructions; performance, ondemand, interactive and conservative
/// brown out; powersave survives -- for every seed.
Check table2_claim(const std::vector<pns::sweep::SummaryRow>& rows);

/// Section III: the paper's optimum (144 mV, 47.9 mV, 0.120 V/s,
/// 0.479 V/s) scores within one point of the grid's best time in band.
Check section3_claim(const Options& opt, const GridStudy& study,
                     const pns::opt::SearchResult& r);

}  // namespace perfbench
