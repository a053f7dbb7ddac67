// Error budget of the integration engines against a tight reference.
//
// The default engine (rk23pi: rtol 1e-4, 0.25 s segments) and the legacy
// rk23 (rtol 1e-6, 0.05 s segments) each run over seeded grids from
// tests/support/scenario_grid.hpp and are compared with
// `rk23:rtol=1e-10,atol=1e-12` on the same scenario. A window whose
// discrete history differs from the reference (brownouts, controller
// interrupts, DVFS or hot-plug steps) is counted as diverged and budgeted
// by count: once one run takes a threshold crossing the other does not,
// no voltage or metric budget is meaningful. Two quantities are measured
// on the remaining windows, separately, because they have different
// causes:
//
//  * Trajectory error: max |dVC| at common sample times. Both runs record
//    VC at every segment end, and a sample counts as common when the
//    reference has a sample within kCommonTimeS of it. The reference is
//    then interpolated over at most that distance inside one smooth
//    segment, which adds well under a millivolt. The budget applies to
//    regulated windows (no brownout). In a brownout cycle, a small shift
//    in event time becomes a phase shift of a 0.5 V relaxation
//    oscillation. There |dVC| grows to the cycle's amplitude, so it is
//    printed but not budgeted. lifetime_s and the brownout count bound
//    those windows instead.
//  * Metric deviation: the CSV columns of a non-recording (production)
//    run. sim/metrics.cpp weights vc_min/vc_max/vc_mean/vc_stddev over
//    segment midpoints and takes energy_harvested_j as a trapezoid over
//    segment endpoints. These columns therefore move with the segment
//    length (0.05 s -> 0.25 s) as well as with ODE error.
//
// docs/performance.md ("Error budget") publishes the measured numbers.
// The budgets asserted below are those numbers with about 2x headroom.
// Run this binary with --gtest_filter='ErrorBudget.*' to print them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "sweep/aggregate.hpp"
#include "sweep/runner.hpp"
#include "../support/scenario_grid.hpp"

namespace pns {
namespace {

constexpr const char* kReference = "rk23:rtol=1e-10,atol=1e-12";
constexpr double kCommonTimeS = 1e-3;

std::vector<sweep::ScenarioSpec> budget_grid() {
  testsupport::GridOptions opt;
  opt.count = 24;
  auto specs = testsupport::make_scenario_grid(0xB0D6E7ull, opt);
  opt.count = 12;
  for (auto& s : testsupport::make_newton_stress_grid(0xB0D6E7ull, opt))
    specs.push_back(std::move(s));
  // The mixed grids' windows mostly brown out; add warm daytime
  // power-neutral windows so the regulated trajectory covers the paper's
  // controller at work, interrupts and all.
  opt.count = 32;
  opt.controls = {"pns"};
  opt.min_window_s = 60.0;
  for (auto& s : testsupport::make_scenario_grid(0x9A9E3ull, opt)) {
    if (s.vc0 != 5.3 || s.t_start < 9.0 * 3600.0) continue;
    s.label = "pns-" + s.label;
    specs.push_back(std::move(s));
  }
  return specs;
}

std::vector<sweep::SweepOutcome> run_all(std::vector<sweep::ScenarioSpec> specs,
                                         const std::string& integrator,
                                         bool record) {
  for (auto& s : specs) {
    s.integrator = sweep::IntegratorSpec::parse(integrator);
    s.record_series = record;
    // Record every segment end: the recorder keeps a sample once this
    // much simulated time has passed. This also caps coasting jumps at
    // the interval, so recording runs step through quiescent spans; the
    // non-recording runs scored on metrics coast as in production.
    s.record_interval_s = 1e-3;
  }
  auto outcomes = sweep::SweepRunner().run(specs);
  for (const auto& o : outcomes)
    EXPECT_TRUE(o.ok) << integrator << " " << o.spec.label << ": " << o.error;
  return outcomes;
}

bool same_discrete_history(const sim::SimResult& a, const sim::SimResult& b) {
  return a.metrics.brownouts == b.metrics.brownouts &&
         a.controller.interrupts == b.controller.interrupts &&
         a.controller.dvfs_steps == b.controller.dvfs_steps &&
         a.controller.hotplug_steps == b.controller.hotplug_steps;
}

struct TrajectoryError {
  double max_dv = 0.0;
  std::size_t common = 0;
  std::size_t samples = 0;
};

TrajectoryError trajectory_error(const TimeSeries& run, const TimeSeries& ref) {
  TrajectoryError e;
  const auto& rt = ref.times();
  for (std::size_t i = 0; i < run.size(); ++i) {
    const double t = run.times()[i];
    ++e.samples;
    const auto it = std::lower_bound(rt.begin(), rt.end(), t - kCommonTimeS);
    if (it == rt.end() || *it > t + kCommonTimeS) continue;
    ++e.common;
    e.max_dv = std::max(e.max_dv, std::abs(run.values()[i] - ref.at(t)));
  }
  return e;
}

/// One CSV column's deviation from the reference: absolute, or relative
/// to max(|reference|, floor) for the extensive columns.
struct Column {
  const char* name;
  double (*get)(const sweep::SummaryRow&);
  bool relative;
};

const Column kColumns[] = {
    {"vc_min", [](const sweep::SummaryRow& r) { return r.vc_min; }, false},
    {"vc_max", [](const sweep::SummaryRow& r) { return r.vc_max; }, false},
    {"vc_mean", [](const sweep::SummaryRow& r) { return r.vc_mean; }, false},
    {"vc_stddev", [](const sweep::SummaryRow& r) { return r.vc_stddev; },
     false},
    {"fraction_in_band",
     [](const sweep::SummaryRow& r) { return r.fraction_in_band; }, false},
    {"neutrality_error",
     [](const sweep::SummaryRow& r) { return r.neutrality_error; }, false},
    {"lifetime_s", [](const sweep::SummaryRow& r) { return r.lifetime_s; },
     false},
    {"energy_harvested_j",
     [](const sweep::SummaryRow& r) { return r.energy_harvested_j; }, true},
    {"energy_consumed_j",
     [](const sweep::SummaryRow& r) { return r.energy_consumed_j; }, true},
    {"instructions",
     [](const sweep::SummaryRow& r) { return r.instructions; }, true},
};
constexpr std::size_t kNumColumns = std::size(kColumns);

/// Asserted budgets, per engine: the measured worst case over the grid
/// with headroom (docs/performance.md publishes both).
struct LegBudget {
  const char* integrator;
  double trajectory_v;        ///< max |dVC|, regulated matched windows
  std::size_t diverged;       ///< windows whose discrete history differs
  double column[kNumColumns]; ///< per-column deviation, matched windows
};

const LegBudget kBudgets[] = {
    // Column order as kColumns: vc_min, vc_max, vc_mean, vc_stddev (V),
    // fraction_in_band, neutrality_error, lifetime_s (s), then relative
    // energy_harvested_j, energy_consumed_j, instructions.
    {"rk23pi", 0.04, 8,
     {1.0, 0.6, 0.08, 0.25, 3e-3, 0.02, 2e-4, 0.02, 1e-3, 4e-4}},
    {"rk23", 2.5e-3, 0,
     {1e-3, 2e-3, 2e-5, 2e-5, 1e-6, 3e-5, 1e-5, 1e-5, 3e-5, 3e-5}},
};

struct LegReport {
  std::size_t regulated = 0, browned = 0, diverged = 0;
  double regulated_dv = 0.0;  ///< max |dVC|, matched windows, no brownout
  double browned_dv = 0.0;    ///< max |dVC|, matched windows with brownouts
  std::size_t common = 0, samples = 0;
  double column[kNumColumns] = {};
};

LegReport measure(const std::vector<sweep::ScenarioSpec>& grid,
                  const std::vector<sweep::SweepOutcome>& ref_rec,
                  const std::vector<sweep::SweepOutcome>& ref_csv,
                  const std::string& integrator) {
  LegReport rep;
  const auto rec = run_all(grid, integrator, true);
  const auto csv = run_all(grid, integrator, false);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!same_discrete_history(csv[i].result, ref_csv[i].result) ||
        !same_discrete_history(rec[i].result, ref_rec[i].result)) {
      ++rep.diverged;
      continue;
    }
    const auto e =
        trajectory_error(rec[i].result.series.vc, ref_rec[i].result.series.vc);
    rep.common += e.common;
    rep.samples += e.samples;
    if (ref_csv[i].result.metrics.brownouts == 0) {
      ++rep.regulated;
      rep.regulated_dv = std::max(rep.regulated_dv, e.max_dv);
    } else {
      ++rep.browned;
      rep.browned_dv = std::max(rep.browned_dv, e.max_dv);
    }
    const auto row = sweep::summarize(csv[i]);
    const auto ref = sweep::summarize(ref_csv[i]);
    for (std::size_t c = 0; c < kNumColumns; ++c) {
      const double a = kColumns[c].get(row), b = kColumns[c].get(ref);
      double d = std::abs(a - b);
      if (kColumns[c].relative) d /= std::max(std::abs(b), 1.0);
      rep.column[c] = std::max(rep.column[c], d);
    }
  }
  return rep;
}

TEST(ErrorBudget, EnginesStayWithinTheirPublishedBudgets) {
  const auto grid = budget_grid();
  const auto ref_rec = run_all(grid, kReference, true);
  const auto ref_csv = run_all(grid, kReference, false);

  for (const LegBudget& budget : kBudgets) {
    SCOPED_TRACE(budget.integrator);
    const LegReport rep = measure(grid, ref_rec, ref_csv, budget.integrator);
    std::printf(
        "%s vs %s, %zu windows: %zu regulated, %zu with brownouts, "
        "%zu diverged\n"
        "  trajectory max |dVC|: regulated %.3g V, with brownouts %.3g V "
        "(%zu of %zu samples common)\n",
        budget.integrator, kReference, grid.size(), rep.regulated,
        rep.browned, rep.diverged, rep.regulated_dv, rep.browned_dv,
        rep.common, rep.samples);
    for (std::size_t c = 0; c < kNumColumns; ++c)
      std::printf("  %-18s %s %.3g\n", kColumns[c].name,
                  kColumns[c].relative ? "rel" : "abs", rep.column[c]);

    EXPECT_GE(rep.regulated, 8u);
    EXPECT_LE(rep.diverged, budget.diverged);
    EXPECT_LE(rep.regulated_dv, budget.trajectory_v);
    for (std::size_t c = 0; c < kNumColumns; ++c)
      EXPECT_LE(rep.column[c], budget.column[c]) << kColumns[c].name;
  }
}

}  // namespace
}  // namespace pns
