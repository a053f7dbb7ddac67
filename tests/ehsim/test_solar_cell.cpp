// Tests for the single-diode PV model (ehsim/solar_cell): calibration,
// IV-curve invariants and MPP behaviour.
#include "ehsim/solar_cell.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace pns::ehsim {
namespace {

SolarCell paper_cell() {
  return SolarCell::calibrate(/*voc=*/6.8, /*isc=*/1.15, /*vmpp=*/5.3,
                              /*rs=*/0.30, /*rp=*/200.0);
}

TEST(SolarCellCalibrate, HitsOpenCircuitVoltage) {
  auto cell = paper_cell();
  EXPECT_NEAR(cell.open_circuit_voltage(1000.0), 6.8, 0.02);
}

TEST(SolarCellCalibrate, HitsShortCircuitCurrent) {
  auto cell = paper_cell();
  EXPECT_NEAR(cell.short_circuit_current(1000.0), 1.15, 0.01);
}

TEST(SolarCellCalibrate, HitsMppVoltage) {
  auto cell = paper_cell();
  EXPECT_NEAR(cell.mpp(1000.0).voltage, 5.3, 0.05);
}

TEST(SolarCellCalibrate, MppPowerPlausible) {
  // Paper Fig. 13: array peak power ~5.4 W.
  auto cell = paper_cell();
  const double p = cell.mpp(1000.0).power;
  EXPECT_GT(p, 4.5);
  EXPECT_LT(p, 6.5);
}

TEST(SolarCellCalibrate, RejectsInconsistentTargets) {
  EXPECT_THROW(SolarCell::calibrate(5.0, 1.0, 5.5), std::invalid_argument);
  EXPECT_THROW(SolarCell::calibrate(-1.0, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(SolarCell::calibrate(5.0, 0.0, 4.0), std::invalid_argument);
  EXPECT_THROW(SolarCell::calibrate(5.0, 1.0, 4.0, -0.1),
               std::invalid_argument);
}

TEST(SolarCell, CurrentMonotoneDecreasingInVoltage) {
  auto cell = paper_cell();
  double prev = cell.current(0.0, 1000.0);
  for (double v = 0.2; v <= 7.4; v += 0.2) {
    const double i = cell.current(v, 1000.0);
    EXPECT_LT(i, prev) << "at v=" << v;
    prev = i;
  }
}

TEST(SolarCell, SinksBeyondOpenCircuit) {
  auto cell = paper_cell();
  EXPECT_LT(cell.current(7.2, 1000.0), 0.0);
}

TEST(SolarCell, DarkCellProducesNoPower) {
  auto cell = paper_cell();
  EXPECT_DOUBLE_EQ(cell.photo_current(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cell.photo_current(-50.0), 0.0);
  EXPECT_DOUBLE_EQ(cell.open_circuit_voltage(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cell.mpp(0.0).power, 0.0);
  EXPECT_LE(cell.current(1.0, 0.0), 0.0);  // dark diode only absorbs
}

TEST(SolarCell, PhotoCurrentLinearInIrradiance) {
  auto cell = paper_cell();
  const double i1 = cell.photo_current(250.0);
  const double i2 = cell.photo_current(500.0);
  const double i4 = cell.photo_current(1000.0);
  EXPECT_NEAR(i2, 2.0 * i1, 1e-12);
  EXPECT_NEAR(i4, 4.0 * i1, 1e-12);
}

TEST(SolarCell, MppPowerScalesSublinearlyWithIrradiance) {
  auto cell = paper_cell();
  const double p_full = cell.mpp(1000.0).power;
  const double p_half = cell.mpp(500.0).power;
  EXPECT_GT(p_half, 0.40 * p_full);  // roughly proportional
  EXPECT_LT(p_half, 0.60 * p_full);
}

TEST(SolarCell, MppIsActuallyTheMaximum) {
  auto cell = paper_cell();
  const auto mpp = cell.mpp(800.0);
  for (double v = 0.1; v < cell.open_circuit_voltage(800.0); v += 0.1) {
    EXPECT_LE(cell.power(v, 800.0), mpp.power + 1e-6) << "at v=" << v;
  }
}

TEST(SolarCell, ResidualOfImplicitEquationIsSmall) {
  auto cell = paper_cell();
  const auto& p = cell.params();
  for (double v : {0.0, 2.0, 4.0, 5.3, 6.0, 6.8}) {
    const double il = cell.photo_current(1000.0);
    const double i = cell.current_from_photo(v, il);
    const double vd = v + p.rs * i;
    const double residual =
        il - p.i0 * (std::exp(vd / p.vt_eff) - 1.0) - vd / p.rp - i;
    EXPECT_NEAR(residual, 0.0, 1e-9) << "at v=" << v;
  }
}

TEST(SolarCell, IvCurveMatchesDirectEvaluation) {
  auto cell = paper_cell();
  auto curve = cell.iv_curve(1000.0, 128);
  for (double v : {0.5, 2.5, 4.9, 6.1}) {
    EXPECT_NEAR(curve(v), cell.current(v, 1000.0), 5e-3) << "at v=" << v;
  }
}

TEST(SolarCell, ScaledAreaScalesCurrentsNotVoltages) {
  auto cell = paper_cell();
  auto half = cell.scaled_area(0.5);
  EXPECT_NEAR(half.short_circuit_current(1000.0),
              0.5 * cell.short_circuit_current(1000.0), 1e-6);
  EXPECT_NEAR(half.open_circuit_voltage(1000.0),
              cell.open_circuit_voltage(1000.0), 1e-6);
  EXPECT_NEAR(half.mpp(1000.0).power, 0.5 * cell.mpp(1000.0).power, 1e-3);
}

TEST(SolarCell, ScaledAreaRejectsNonPositive) {
  auto cell = paper_cell();
  EXPECT_THROW(cell.scaled_area(0.0), pns::ContractViolation);
}

// The root of eq. 4 polished independently of SolarCell::solve: bisection
// on the sign of the residual (in long double) until the bracket holds
// two adjacent doubles. The residual is strictly decreasing in I.
double polished_root(const SolarCellParams& p, double v, double il) {
  const auto residual = [&](double i) {
    const long double vd = static_cast<long double>(v) + p.rs * i;
    return il - p.i0 * (std::exp(vd / p.vt_eff) - 1.0L) - vd / p.rp - i;
  };
  double lo = -1e4;    // residual > 0
  double hi = il + 1;  // residual < 0 for v >= 0
  for (int k = 0; k < 4000 && std::nextafter(lo, hi) < hi; ++k) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    (residual(mid) > 0.0L ? lo : hi) = mid;
  }
  return std::abs(residual(lo)) < std::abs(residual(hi)) ? lo : hi;
}

// The stop rule's contract: from any seed -- cold (the photo-current),
// warm (within 0.1 A), near-root, or far below the root where F'' is
// tiny -- the solve lands within 1e-12 relative of the root, including
// beyond open circuit and in the dark. The two cells are the paper's
// array and a series-resistance-free one, whose far-beyond-Voc solves
// take damped steps (the quadratic bound must not fire after those).
TEST(SolarCellSolve, EverySeedLandsWithinContractOfPolishedRoot) {
  SolarCellParams no_rs = paper_cell().params();
  no_rs.rs = 0.0;
  const SolarCell cells[] = {paper_cell(), SolarCell(no_rs)};
  Rng rng(2024);
  int damped_cases = 0;
  for (const SolarCell& cell : cells) {
    for (int k = 0; k < 3000; ++k) {
      const double v = rng.uniform(0.0, cell.params().rs > 0 ? 7.5 : 10.0);
      const double g = k % 10 == 0 ? 0.0 : rng.uniform(0.0, 1200.0);
      const double il = cell.photo_current(g);
      const double root = polished_root(cell.params(), v, il);
      double seed = il;
      switch (k % 4) {
        case 1: seed = root + rng.uniform(-0.1, 0.1); break;
        case 2: seed = root + rng.uniform(-1e-9, 1e-9); break;
        case 3: seed = root - rng.uniform(5.0, 300.0); break;
        default: break;
      }
      const PvSolve s = cell.solve(v, il, seed);
      ASSERT_LE(std::abs(s.i - root), 1e-12 * (1.0 + std::abs(s.i)))
          << "rs=" << cell.params().rs << " v=" << v << " g=" << g
          << " seed=" << seed << " iters=" << s.iters;
      if (k % 4 == 2) {
        EXPECT_EQ(s.iters, 1u) << "near-root seed, v=" << v << " g=" << g;
      }
      if (std::abs(root - il) > 11.0 * std::max(1.0, std::abs(il)))
        ++damped_cases;
    }
  }
  EXPECT_GT(damped_cases, 100);  // damping was exercised
}

// The returned derivatives predict a nearby root: the second-order term
// along the diode voltage leaves a third-order error, far below the
// first-order prediction's.
TEST(SolarCellSolve, DerivativesPredictNearbyRootToSecondOrder) {
  const auto cell = paper_cell();
  const double rs = cell.params().rs;
  for (const double v : {1.0, 4.0, 5.3, 6.0, 6.6}) {
    for (const double g : {100.0, 600.0, 1000.0}) {
      const double il = cell.photo_current(g);
      const PvSolve s = cell.solve(v, il, il);
      for (const double dv : {-0.02, 0.01}) {
        const double dil = 0.3 * dv;
        const double exact =
            polished_root(cell.params(), v + dv, il + dil);
        const double d1 = s.di_dv * dv + s.di_dil * dil;
        const double dvd = dv + rs * d1;
        const double first = s.i + d1;
        const double second = first + s.half_d2i * dvd * dvd;
        EXPECT_LE(std::abs(second - exact),
                  0.05 * std::abs(first - exact) + 1e-13)
            << "v=" << v << " g=" << g << " dv=" << dv;
      }
    }
  }
}

class SolarIrradianceSweep : public ::testing::TestWithParam<double> {};

// Property: at every irradiance level, 0 <= Vmpp <= Voc, Impp <= Isc and
// MPP power equals Vmpp * Impp.
TEST_P(SolarIrradianceSweep, MppInvariants) {
  auto cell = paper_cell();
  const double g = GetParam();
  const auto mpp = cell.mpp(g);
  const double voc = cell.open_circuit_voltage(g);
  const double isc = cell.short_circuit_current(g);
  EXPECT_GE(mpp.voltage, 0.0);
  EXPECT_LE(mpp.voltage, voc + 1e-9);
  EXPECT_LE(mpp.current, isc + 1e-9);
  EXPECT_NEAR(mpp.power, mpp.voltage * mpp.current, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Irradiances, SolarIrradianceSweep,
                         ::testing::Values(50.0, 100.0, 250.0, 500.0, 750.0,
                                           1000.0, 1200.0));

}  // namespace
}  // namespace pns::ehsim
