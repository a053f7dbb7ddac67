// Tests for the PV source evaluation modes (ehsim/pv_table,
// ehsim/sources): tabulated-mode accuracy against the exact Newton solve,
// the exact mode's solver-tolerance contract, and the solve accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <vector>

#include "ehsim/pv_table.hpp"
#include "ehsim/sources.hpp"

namespace pns::ehsim {
namespace {

SolarCell paper_cell() {
  return SolarCell::calibrate(/*voc=*/6.8, /*isc=*/1.15, /*vmpp=*/5.3,
                              /*rs=*/0.30, /*rp=*/200.0);
}

// ------------------------------------------------------------- PvTable

TEST(PvTable, MeasuredErrorBoundIsTight) {
  const auto cell = paper_cell();
  const PvTable table(cell);
  // The default grid must resolve the IV knee to well under 1% of Isc.
  EXPECT_GT(table.max_abs_error_a(), 0.0);
  EXPECT_LT(table.max_abs_error_a(), 5e-3);
}

TEST(PvTable, OffGridPointsStayWithinMeasuredBound) {
  const auto cell = paper_cell();
  const PvTable table(cell);
  // Probe irrational offsets so no sample lands on a knot or midpoint.
  const double phi = 0.6180339887498949;
  double worst = 0.0;
  for (int k = 1; k <= 200; ++k) {
    const double v = std::fmod(phi * k, 1.0) * table.v_max();
    const double g = std::fmod(phi * phi * k, 1.0) * table.g_max();
    ASSERT_TRUE(table.covers(v, g));
    const double exact = cell.current(v, g);
    worst = std::max(worst, std::abs(table.current(v, g) - exact));
  }
  // Allow a whisker over the midpoint-measured bound: the error field is
  // not exactly maximised at midpoints for a nonlinear surface.
  EXPECT_LT(worst, table.max_abs_error_a() * 1.5 + 1e-12);
}

TEST(PvTable, ExactOnGridKnots) {
  const auto cell = paper_cell();
  const PvTableSpec spec{.v_max = 7.0, .g_max = 1000.0, .nv = 8, .ng = 5};
  const PvTable table(cell, spec);
  for (std::size_t vi = 0; vi < spec.nv; vi += 2) {
    const double v = 7.0 * static_cast<double>(vi) /
                     static_cast<double>(spec.nv - 1);
    const double g = 500.0;  // on the g grid (5 knots over [0, 1000])
    EXPECT_NEAR(table.current(v, g), cell.current(v, g), 1e-9)
        << "v=" << v;
  }
}

TEST(PvTable, CoversOnlyTheTabulatedRectangle) {
  const PvTable table(paper_cell());
  EXPECT_TRUE(table.covers(0.0, 0.0));
  EXPECT_TRUE(table.covers(table.v_max(), table.g_max()));
  EXPECT_FALSE(table.covers(-0.1, 500.0));
  EXPECT_FALSE(table.covers(table.v_max() + 0.1, 500.0));
  EXPECT_FALSE(table.covers(5.0, table.g_max() + 1.0));
  EXPECT_FALSE(table.covers(5.0, -1.0));
}

// ------------------------------------------------------------ PvSource

// A seeded (v, G) random walk: mostly small moves that stay inside the
// warm-start window, plus jumps well outside it. Step k is evaluated at
// t = k, so `gs[k]` is the irradiance a source sees there.
struct Walk {
  std::vector<double> vs, gs;
};

Walk random_walk(std::uint64_t seed, std::size_t steps) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Walk w;
  double v = 5.0, g = 600.0;
  for (std::size_t k = 0; k < steps; ++k) {
    if (unit(rng) < 0.05) {  // jump: a cold start
      v = 7.5 * unit(rng);
      g = 1200.0 * unit(rng);
    } else {
      v = std::clamp(v + 0.04 * (unit(rng) - 0.5), 0.0, 7.5);
      g = std::clamp(g + 20.0 * (unit(rng) - 0.5), 0.0, 1200.0);
    }
    w.vs.push_back(v);
    w.gs.push_back(g);
  }
  return w;
}

TEST(PvSource, ExactModeWithinSolverToleranceOfColdStart) {
  // The default mode's contract: every current() is the damped Newton
  // solve to its 1e-12 relative stop, whatever seed it started from, so
  // it matches the cold-start SolarCell::current to that tolerance.
  const auto cell = paper_cell();
  const Walk w = random_walk(/*seed=*/17, /*steps=*/4000);
  const PvSource source(cell, [&w](double t) {
    return w.gs[static_cast<std::size_t>(t)];
  });
  for (std::size_t k = 0; k < w.vs.size(); ++k) {
    const double i = source.current(w.vs[k], static_cast<double>(k));
    const double cold = cell.current(w.vs[k], w.gs[k]);
    ASSERT_LE(std::abs(i - cold), 1e-12 * (1.0 + std::abs(i)))
        << "k=" << k << " v=" << w.vs[k] << " g=" << w.gs[k];
  }
  // Both seeds were exercised: predicted ones and cold jumps.
  const PvSolveStats& st = source.solve_stats();
  EXPECT_GT(st.warm_starts, 0u);
  EXPECT_LT(st.warm_starts, st.newton_solves);
}

TEST(PvSource, PredictedSeedCutsNewtonIterations) {
  // A slow ramp of the operating point through the regulated band, as
  // the co-simulation produces between events: the slope-predicted seed
  // lands next to the root, where a cold start walks in from Il.
  const auto cell = paper_cell();
  const PvSource source(cell, [](double t) { return 400.0 + 0.25 * t; });
  constexpr int kSteps = 2000;
  std::uint64_t cold_iters = 0;
  for (int k = 0; k < kSteps; ++k) {
    const double v = 5.0 + 0.0007 * k;
    const double t = static_cast<double>(k);
    source.current(v, t);
    const double il = cell.photo_current(400.0 + 0.25 * t);
    cold_iters += cell.solve(v, il, il).iters;
  }
  const PvSolveStats& st = source.solve_stats();
  ASSERT_EQ(st.newton_solves, static_cast<std::uint64_t>(kSteps));
  const double warm = static_cast<double>(st.newton_iterations) / kSteps;
  const double cold = static_cast<double>(cold_iters) / kSteps;
  // The second-order seed lands within the quadratic-convergence bound,
  // so nearly every predicted solve is a single exp.
  EXPECT_LE(warm, 1.05);
  EXPECT_GE(cold, 3.0);
  EXPECT_LT(3.0 * warm, cold);
}

TEST(PvSource, RepeatedEvaluationIsMemoisedBitIdentically) {
  const PvSource source(paper_cell(), [](double) { return 850.0; });
  const double first = source.current(5.1, 3.0);
  for (int k = 0; k < 5; ++k) EXPECT_EQ(source.current(5.1, 3.0), first);
}

TEST(PvSource, TabulatedModeStaysWithinTableErrorBound) {
  const auto cell = paper_cell();
  const PvSource exact(cell, [](double) { return 850.0; });
  const PvSource tab(cell, [](double) { return 850.0; },
                     PvSource::Mode::kTabulated);
  ASSERT_NE(tab.table(), nullptr);
  const double bound = tab.table()->max_abs_error_a() * 1.5 + 1e-12;
  for (int k = 0; k < 100; ++k) {
    const double v = 0.068 * k;  // 0 .. 6.73 V
    EXPECT_NEAR(tab.current(v, 0.0), exact.current(v, 0.0), bound)
        << "v=" << v;
  }
}

TEST(PvSource, TabulatedModeFallsBackToNewtonOffTable) {
  const auto cell = paper_cell();
  const PvSource tab(cell, [](double) { return 1500.0; },  // > g_max
                     PvSource::Mode::kTabulated);
  ASSERT_FALSE(tab.table()->covers(5.0, 1500.0));
  // Off the table the answer is a Newton solve (warm-started, so equal to
  // the cold solve to solver tolerance rather than bit-identical).
  EXPECT_NEAR(tab.current(5.0, 0.0), cell.current(5.0, 1500.0), 1e-9);
}

TEST(PvSource, AvailablePowerMemoisedOnIrradiance) {
  const auto cell = paper_cell();
  const PvSource source(cell, [](double) { return 900.0; });
  const double p = source.available_power(0.0);
  EXPECT_EQ(source.available_power(10.0), p);  // same G -> same bits
  EXPECT_NEAR(p, cell.mpp(900.0).power, 1e-12);
}

TEST(PvSource, ExactModeHasNoTable) {
  const PvSource source(paper_cell(), [](double) { return 900.0; });
  EXPECT_EQ(source.mode(), PvSource::Mode::kExact);
  EXPECT_EQ(source.table(), nullptr);
}

// Solve accounting: every current() call lands on exactly one path, and
// the counters say which. The repository benchmark's traced pass
// attributes PV time through them (`ehsim.pv.*`).
PvSource counted_source(PvSource::Mode mode) {
  const SolarCell cell(SolarCellParams{2e-9, 1.6, 0.3, 200.0, 1.15, 1000.0});
  auto irr = [](double t) { return t < 100.0 ? 800.0 : 30.0; };
  if (mode == PvSource::Mode::kExact) return PvSource(cell, irr);
  const PvTableSpec spec{.v_max = 7.0, .g_max = 1200.0, .nv = 17, .ng = 9};
  return PvSource(cell, irr, std::make_shared<const PvTable>(cell, spec));
}

TEST(PvSource, SolveStatsCountEveryPath) {
  for (const auto mode :
       {PvSource::Mode::kExact, PvSource::Mode::kTabulated}) {
    const PvSource source = counted_source(mode);
    // A call sequence hitting memo (same v,t), cold solves (jumps),
    // solves seeded from a nearby previous one, and -- in tabulated mode
    // -- the table path plus the off-table Newton fallback (v beyond the
    // table's 7 V edge) whose second call warm-starts from the first.
    const double pts[][2] = {{5.3, 10.0}, {5.3, 10.0},  {5.31, 11.0},
                             {2.0, 12.0}, {2.01, 13.0}, {5.3, 200.0},
                             {5.3, 200.0}, {0.5, 201.0}, {7.5, 300.0},
                             {7.52, 301.0}};
    for (const auto& p : pts) source.current(p[0], p[1]);
    const PvSolveStats& st = source.solve_stats();
    EXPECT_EQ(st.calls, std::size(pts));
    EXPECT_EQ(st.table_hits + st.memo_hits + st.newton_solves, st.calls);
    EXPECT_GE(st.newton_iterations, st.newton_solves);
    if (mode == PvSource::Mode::kExact) {
      // Exact mode has no table; nearby solves warm-start as off-table
      // ones do in tabulated mode.
      EXPECT_EQ(st.table_hits, 0u);
      EXPECT_GT(st.newton_solves, 0u);
      EXPECT_GT(st.memo_hits, 0u);
      EXPECT_GT(st.warm_starts, 0u);
    } else {
      EXPECT_GT(st.table_hits, 0u);
      EXPECT_GT(st.newton_solves, 0u);
      EXPECT_GT(st.warm_starts, 0u);
    }
  }
}

// The last-call memo: a call sequence with immediate (v, t) repeats must
// return bit for bit what the same sequence without the repeats returns
// -- every warm-started Newton seed depends on the previous solve, so
// any skipped or extra solve would show.
TEST(PvSource, LastCallMemoIsBitIdenticalToSequenceWithoutRepeats) {
  for (const auto mode :
       {PvSource::Mode::kExact, PvSource::Mode::kTabulated}) {
    const double pts[][2] = {{5.3, 10.0},  {5.31, 11.0}, {2.0, 12.0},
                             {7.5, 300.0}, {7.52, 301.0}, {7.6, 301.5},
                             {5.3, 200.0}, {0.5, 201.0},  {7.55, 302.0},
                             {7.55, 303.0}, {5.3, 10.0}};
    const PvSource plain = counted_source(mode);
    const PvSource repeated = counted_source(mode);
    std::uint64_t repeats = 0;
    for (std::size_t k = 0; k < std::size(pts); ++k) {
      const double v = pts[k][0];
      const double t = pts[k][1];
      const double want = plain.current(v, t);
      // 0, 1 or 2 immediate repeats, varying along the sequence.
      const std::size_t copies = 1 + k % 3;
      for (std::size_t r = 0; r < copies; ++r)
        EXPECT_EQ(repeated.current(v, t), want) << "v=" << v << " t=" << t;
      repeats += copies - 1;
    }
    ASSERT_GT(plain.solve_stats().warm_starts, 0u);  // seeded solves covered
    const PvSolveStats& a = plain.solve_stats();
    const PvSolveStats& b = repeated.solve_stats();
    EXPECT_EQ(b.calls, a.calls + repeats);  // every call is counted
    EXPECT_EQ(b.memo_hits, a.memo_hits + repeats);  // repeats are memo hits
    // The repeats reached neither the table nor the solver.
    EXPECT_EQ(b.table_hits, a.table_hits);
    EXPECT_EQ(b.newton_solves, a.newton_solves);
    EXPECT_EQ(b.newton_iterations, a.newton_iterations);
    EXPECT_EQ(b.warm_starts, a.warm_starts);
  }
}

TEST(PvSource, LastCallMemoKeysOnTimeAsWellAsVoltage) {
  // Same v, different t under a time-varying irradiance: not a repeat.
  const auto cell = paper_cell();
  const PvSource source(cell, [](double t) { return 600.0 + 10.0 * t; });
  const double a = source.current(5.0, 1.0);
  const double b = source.current(5.0, 2.0);
  EXPECT_EQ(a, cell.current(5.0, 610.0));  // first solve: a cold start
  EXPECT_NEAR(b, cell.current(5.0, 620.0), 1e-12);  // seeded from `a`
  EXPECT_NE(a, b);
  EXPECT_EQ(source.solve_stats().memo_hits, 0u);
}

TEST(PvSource, SolveStatsAccumulate) {
  PvSolveStats a;
  a.calls = 3;
  a.newton_solves = 2;
  a.newton_iterations = 11;
  PvSolveStats b;
  b.calls = 5;
  b.memo_hits = 4;
  b.warm_starts = 1;
  a += b;
  EXPECT_EQ(a.calls, 8u);
  EXPECT_EQ(a.memo_hits, 4u);
  EXPECT_EQ(a.newton_solves, 2u);
  EXPECT_EQ(a.newton_iterations, 11u);
  EXPECT_EQ(a.warm_starts, 1u);
}

}  // namespace
}  // namespace pns::ehsim
