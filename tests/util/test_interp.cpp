// Tests for piecewise-linear interpolation (util/interp).
#include "util/interp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace pns {
namespace {

PiecewiseLinear ramp() { return PiecewiseLinear({0.0, 1.0, 3.0}, {0.0, 2.0, 2.0}); }

TEST(PiecewiseLinear, RejectsBadKnots) {
  EXPECT_THROW(PiecewiseLinear({}, {}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({1.0, 0.0}, {1.0, 2.0}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({0.0, 1.0}, {1.0}), ContractViolation);
}

TEST(PiecewiseLinear, EvaluatesAtKnots) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(3.0), 2.0);
}

TEST(PiecewiseLinear, InterpolatesBetweenKnots) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(2.0), 2.0);
}

TEST(PiecewiseLinear, ClampsOutsideRange) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(f(99.0), 2.0);
}

TEST(PiecewiseLinear, SlopePerSegment) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f.slope_at(0.5), 2.0);
  EXPECT_DOUBLE_EQ(f.slope_at(2.0), 0.0);
  EXPECT_DOUBLE_EQ(f.slope_at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.slope_at(4.0), 0.0);
}

TEST(PiecewiseLinear, IntegrateFullRange) {
  auto f = ramp();
  // triangle 0..1 (area 1) + rectangle 1..3 (area 4)
  EXPECT_NEAR(f.integrate(0.0, 3.0), 5.0, 1e-12);
}

TEST(PiecewiseLinear, IntegratePartialAndClamped) {
  auto f = ramp();
  EXPECT_NEAR(f.integrate(0.0, 0.5), 0.25, 1e-12);
  // extrapolated flat at 2.0 beyond x=3
  EXPECT_NEAR(f.integrate(3.0, 5.0), 4.0, 1e-12);
  // extrapolated flat at 0.0 before x=0
  EXPECT_NEAR(f.integrate(-2.0, 0.0), 0.0, 1e-12);
}

TEST(PiecewiseLinear, IntegrateRejectsInvertedRange) {
  auto f = ramp();
  EXPECT_THROW(f.integrate(1.0, 0.0), ContractViolation);
}

TEST(PiecewiseLinear, EvalHintedBitIdenticalToOperator) {
  // Build an irregular function and compare hinted vs plain evaluation for
  // forward sweeps, backward sweeps, random jumps and out-of-range points.
  // The contract is bit-identity, so EXPECT_EQ on the doubles.
  std::vector<double> xs, ys;
  double x = 0.0;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(x);
    ys.push_back(std::sin(0.7 * i) + 0.01 * i);
    x += 0.1 + 0.03 * (i % 5);
  }
  const PiecewiseLinear f(xs, ys);
  std::size_t hint = 0;
  auto check = [&](double q) { EXPECT_EQ(f.eval_hinted(q, hint), f(q)); };
  for (double q = -0.5; q < x + 0.5; q += 0.0137) check(q);   // forward
  for (double q = x + 0.5; q > -0.5; q -= 0.0213) check(q);   // backward
  for (int i = 0; i < 200; ++i)                               // jumps
    check(std::fmod(i * 2.718281828, x));
  for (double q : xs) check(q);                               // exact knots
  hint = 9999;                                                // stale hint
  check(1.0);
}

TEST(PiecewiseLinear, FlatUntilHintedMatchesFlatUntil) {
  // An irregular function with level runs of one to three segments
  // between sloped ones: every answer of flat_until (x itself, the end of
  // a run, +infinity past the last run) must come back bit for bit from
  // the hinted lookup, whatever state the hint is in.
  std::vector<double> xs, ys;
  double x = 0.0, y = 1.0;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(x);
    ys.push_back(y);
    if (i % 7 >= 3) y += std::sin(0.9 * i) + 0.02;  // level runs otherwise
    x += 0.1 + 0.04 * (i % 3);
  }
  ys.back() = ys[ys.size() - 2];  // a level run that reaches the last knot
  const PiecewiseLinear f(xs, ys);
  std::size_t hint = 0;
  auto check = [&](double q) {
    EXPECT_EQ(f.flat_until_hinted(q, hint), f.flat_until(q)) << "x=" << q;
  };
  for (double q = -0.5; q < x + 0.5; q += 0.0137) check(q);   // forward
  for (double q : xs) check(q);                               // exact knots
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) check(rng.uniform(-0.5, x + 0.5));  // random
  for (std::size_t stale : {std::size_t{0}, std::size_t{63},
                            std::size_t{64}, std::size_t{9999}}) {
    for (double q : {-0.1, 0.05, 1.0, x * 0.5, xs.back(), x + 1.0}) {
      hint = stale;                                           // stale hint
      check(q);
    }
  }
}

TEST(PiecewiseLinear, FromPairsSorts) {
  auto f = PiecewiseLinear::from_pairs({{2.0, 20.0}, {0.0, 0.0}, {1.0, 10.0}});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.5), 15.0);
}

TEST(PiecewiseLinear, ScaledMultipliesValues) {
  auto f = ramp().scaled(3.0);
  EXPECT_DOUBLE_EQ(f(1.0), 6.0);
  EXPECT_DOUBLE_EQ(f(0.5), 3.0);
}

TEST(PiecewiseLinear, FirstCrossingFindsRoot) {
  auto f = ramp();
  EXPECT_NEAR(f.first_crossing(1.0, -1.0), 0.5, 1e-12);
}

TEST(PiecewiseLinear, FirstCrossingFallback) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f.first_crossing(5.0, -1.0), -1.0);
}

TEST(PiecewiseLinear, FirstCrossingAtKnotStart) {
  PiecewiseLinear f({0.0, 1.0}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(f.first_crossing(1.0, -1.0), 0.0);
}

TEST(PiecewiseLinear, SingleKnotBehavesAsConstant) {
  PiecewiseLinear f({2.0}, {7.0});
  EXPECT_DOUBLE_EQ(f(0.0), 7.0);
  EXPECT_DOUBLE_EQ(f(5.0), 7.0);
  EXPECT_DOUBLE_EQ(f.slope_at(2.0), 0.0);
}

TEST(PiecewiseLinear, FlatUntilWalksLevelRuns) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  //            sloped      flat run          sloped   flat tail
  PiecewiseLinear f({0.0, 1.0, 2.0, 3.0, 4.0, 5.0},
                    {0.0, 2.0, 2.0, 2.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(f.flat_until(0.5), 0.5);   // inside a sloped segment
  EXPECT_DOUBLE_EQ(f.flat_until(1.0), 3.0);   // start of the level run
  EXPECT_DOUBLE_EQ(f.flat_until(2.5), 3.0);   // inside the level run
  EXPECT_DOUBLE_EQ(f.flat_until(3.5), 3.5);   // sloped again
  EXPECT_DOUBLE_EQ(f.flat_until(4.2), kInf);  // level to the end + clamp
  EXPECT_DOUBLE_EQ(f.flat_until(9.0), kInf);  // clamped extrapolation
  EXPECT_DOUBLE_EQ(f.flat_until(-2.0), 0.0);  // clamped region before
}

TEST(PiecewiseLinear, FlatUntilOnConstantAndSingleKnot) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PiecewiseLinear flat({0.0, 1.0, 2.0}, {3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(flat.flat_until(0.0), kInf);
  EXPECT_DOUBLE_EQ(flat.flat_until(1.5), kInf);
  PiecewiseLinear single({2.0}, {7.0});
  EXPECT_DOUBLE_EQ(single.flat_until(0.0), kInf);
  EXPECT_DOUBLE_EQ(single.flat_until(5.0), kInf);
}

class InterpLinearityProperty : public ::testing::TestWithParam<double> {};

// Property: for any query point inside a segment, the interpolated value
// lies between the segment endpoint values.
TEST_P(InterpLinearityProperty, ValueBoundedByEndpoints) {
  auto f = PiecewiseLinear({0.0, 1.0, 2.0, 4.0}, {1.0, -3.0, 5.0, 0.0});
  const double x = GetParam();
  const double y = f(x);
  EXPECT_GE(y, -3.0);
  EXPECT_LE(y, 5.0);
}

INSTANTIATE_TEST_SUITE_P(QueryPoints, InterpLinearityProperty,
                         ::testing::Values(0.0, 0.3, 0.9, 1.0, 1.5, 2.7,
                                           3.999, 4.0));

}  // namespace
}  // namespace pns
