// Tests for the one-state ODE integrator (ehsim/rk23): accuracy and
// tolerance control on analytic systems, threshold-event localisation
// (bisection and dense-output root), the PI step controller, and parity
// of its two configurations against a tight-tolerance reference on the
// paper's storage-node circuit.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "ehsim/circuit.hpp"
#include "ehsim/dense_output.hpp"
#include "ehsim/loads.hpp"
#include "ehsim/ode.hpp"
#include "ehsim/rk23.hpp"
#include "ehsim/sources.hpp"
#include "ehsim/stepper_pi.hpp"
#include "sim/experiment.hpp"
#include "util/contracts.hpp"

namespace pns::ehsim {
namespace {

/// y' = -k y, y(0) = 1 -> y(t) = exp(-k t).
class ExpDecay : public OdeSystem {
 public:
  explicit ExpDecay(double k) : k_(k) {}
  double derivative(double, double y) const override { return -k_ * y; }

 private:
  double k_;
};

/// Periodic forcing: y' = 2 pi cos(2 pi t), y(0) = 0 -> y(t) = sin(2 pi t).
class ForcedPeriodic : public OdeSystem {
 public:
  double derivative(double t, double) const override {
    return 2.0 * std::numbers::pi * std::cos(2.0 * std::numbers::pi * t);
  }
};

/// y' = -1: integrated exactly by RK23 (zero error estimate).
class Ramp : public OdeSystem {
 public:
  double derivative(double, double) const override { return -1.0; }
};

TEST(Rk23, AccurateOnExpDecay) {
  ExpDecay sys(2.0);
  Rk23Options opt;
  opt.rel_tol = 1e-8;
  opt.abs_tol = 1e-10;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 1.0);
  const auto res = ig.advance(2.0);
  EXPECT_FALSE(res.event_fired);
  EXPECT_DOUBLE_EQ(ig.time(), 2.0);
  EXPECT_NEAR(ig.state(), std::exp(-4.0), 1e-7);
}

TEST(Rk23, ReturnsToZeroAfterFivePeriodsOfForcing) {
  ForcedPeriodic sys;  // 1 Hz
  Rk23Options opt;
  opt.rel_tol = 1e-9;
  opt.abs_tol = 1e-12;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 0.0);
  ig.advance(5.0);  // 5 full periods
  EXPECT_LT(std::abs(ig.state()), 1e-5);
}

TEST(Rk23, ToleranceControlsError) {
  ExpDecay sys(1.0);
  auto run = [&](double rtol) {
    Rk23Options opt;
    opt.rel_tol = rtol;
    opt.abs_tol = rtol * 1e-3;
    Rk23Integrator ig(sys, opt);
    ig.reset(0.0, 1.0);
    ig.advance(1.0);
    return std::abs(ig.state() - std::exp(-1.0));
  };
  EXPECT_LT(run(1e-9), run(1e-4));
  EXPECT_LT(run(1e-4), 1e-3);
}

TEST(Rk23, LooserToleranceTakesFewerSteps) {
  ExpDecay sys(1.0);
  auto steps = [&](double rtol) {
    Rk23Options opt;
    opt.rel_tol = rtol;
    opt.abs_tol = 1e-12;
    Rk23Integrator ig(sys, opt);
    ig.reset(0.0, 1.0);
    ig.advance(10.0);
    return ig.total_steps();
  };
  EXPECT_LT(steps(1e-3), steps(1e-8));
}

TEST(Rk23, RespectsMaxStep) {
  ExpDecay sys(1e-6);  // nearly constant -> wants huge steps
  Rk23Options opt;
  opt.max_step = 0.125;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 1.0);
  const auto res = ig.advance(1.0);
  EXPECT_GE(res.steps_taken, 8u);
}

TEST(Rk23, EventLocalisedAccurately) {
  // y = exp(-t) crosses 0.5 at t = ln 2.
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  ig.reset(0.0, 1.0);
  const EventSpec ev{0.5, EventDirection::kFalling, 42};
  const auto res = ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.event_tag, 42);
  EXPECT_NEAR(res.t, std::numbers::ln2, 1e-5);
  EXPECT_NEAR(ig.state(), 0.5, 1e-5);
}

TEST(Rk23, RisingEventIgnoredOnFallingSignal) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  ig.reset(0.0, 1.0);
  const EventSpec ev{0.5, EventDirection::kRising, 1};
  const auto res = ig.advance(3.0, std::span<const EventSpec>(&ev, 1));
  EXPECT_FALSE(res.event_fired);
  EXPECT_DOUBLE_EQ(res.t, 3.0);
}

TEST(Rk23, ContinuesAfterEvent) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  ig.reset(0.0, 1.0);
  const EventSpec ev{0.5, EventDirection::kFalling, 1};
  auto res = ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  ASSERT_TRUE(res.event_fired);
  // Advance again; the same event function is already below zero, so no
  // new crossing fires and the run completes.
  res = ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  EXPECT_FALSE(res.event_fired);
  EXPECT_NEAR(ig.state(), std::exp(-5.0), 1e-6);
}

TEST(Rk23, EarliestOfMultipleEventsWins) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  ig.reset(0.0, 1.0);
  const std::vector<EventSpec> evs{
      {0.3, EventDirection::kFalling, 1},
      {0.7, EventDirection::kFalling, 2},
  };
  const auto res = ig.advance(5.0, evs);
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.event_tag, 2);  // 0.7 crossed first
  EXPECT_NEAR(res.t, -std::log(0.7), 1e-5);
}

TEST(Rk23, EarliestOfTwoEventsInOneStepWins) {
  // Ramp is integrated exactly, so with a forced large first step BOTH
  // thresholds are crossed inside a single accepted step. The later-listed
  // event crosses first and must win the earliest-root selection.
  Ramp sys;
  Rk23Options opt;
  opt.initial_step = 5.0;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 1.0);
  std::vector<EventSpec> evs{
      EventSpec{0.35, EventDirection::kFalling, 1},
      EventSpec{0.65, EventDirection::kFalling, 2},  // earlier
  };
  const auto res = ig.advance(5.0, evs);
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.steps_taken, 1u);  // both crossings in the same step
  EXPECT_EQ(res.event_tag, 2);
  EXPECT_NEAR(res.t, 0.35, 1e-5);  // y = 1 - t hits 0.65 at t = 0.35
}

TEST(Rk23, ConstantCurrentNodeFiresEachThresholdOnceInOrder) {
  // 0.1 A into 50 mF charges the node at 2 V/s from 1 V: it crosses 1.5,
  // 2 and 2.5 V at t = 0.25, 0.5 and 0.75 s. The events are listed out of
  // order; under either localisation each must fire once, in crossing
  // order, leaving the state on its level.
  const ConstantCurrentSource src(0.1);
  const ConstantPowerLoad load(0.0);
  const EhCircuit circuit(src, load, Capacitor{0.05, 0.0, 1e12});
  const std::vector<EventSpec> evs{
      {2.5, EventDirection::kRising, 3},
      {1.5, EventDirection::kRising, 1},
      {2.0, EventDirection::kAny, 2},
  };
  for (const auto el :
       {EventLocalization::kBisection, EventLocalization::kDenseRoot}) {
    Rk23Options opt;
    opt.event_localization = el;
    Rk23Integrator ig(circuit, opt);
    ig.reset(0.0, 1.0);
    std::vector<int> tags;
    while (ig.time() < 2.0 && tags.size() <= evs.size()) {
      const auto res = ig.advance(2.0, evs);
      if (!res.event_fired) continue;
      tags.push_back(res.event_tag);
      EXPECT_NEAR(res.t, 0.25 * res.event_tag, 1e-6);
      EXPECT_NEAR(ig.state(), 1.0 + 0.5 * res.event_tag, 1e-6);
    }
    EXPECT_EQ(tags, (std::vector<int>{1, 2, 3}));
    EXPECT_NEAR(ig.state(), 5.0, 1e-6);
  }
}

TEST(Rk23, RefusesMoreEventsThanItsCapacity) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  ig.reset(0.0, 1.0);
  const std::vector<EventSpec> evs(Rk23Integrator::kMaxEvents + 1,
                                   EventSpec{0.5, EventDirection::kFalling, 1});
  EXPECT_THROW(ig.advance(1.0, evs), ContractViolation);
}

TEST(Rk23, AdvancePastEndIsNoop) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  ig.reset(1.0, 1.0);
  const auto res = ig.advance(0.5);
  EXPECT_EQ(res.steps_taken, 0u);
  EXPECT_DOUBLE_EQ(ig.time(), 1.0);
}

// ------------------------------------------------- PI step controller

TEST(PiStepController, AcceptGrowsRejectShrinks) {
  PiStepController pi;
  const double grow = pi.on_accepted(1e-4);
  EXPECT_GT(grow, 1.0);
  const double shrink = pi.on_rejected(2.0);
  EXPECT_LT(shrink, 1.0);
  EXPECT_EQ(pi.rejections(), 1u);
  // Growth immediately after a rejection is capped at 1.
  EXPECT_LE(pi.on_accepted(1e-6), 1.0);
}

TEST(PiStepController, IntegralTermSmoothsGrowth) {
  // With history, growth is damped by the previous (small) error: the
  // controller walks h up smoothly instead of slamming into the clamp
  // and rejecting. The first accepted step (no history) falls back to
  // the eager elementary rule.
  PiStepController with_history;
  with_history.on_accepted(1e-4);
  const double damped = with_history.on_accepted(1e-4);
  PiStepController fresh;
  const double eager = fresh.on_accepted(1e-4);
  EXPECT_LT(damped, eager);
  EXPECT_GT(damped, 1.0);
}

TEST(Rk23, PiControlTakesFewerStepsOnPaperCircuit) {
  // Engine-shaped workload: the storage node under constant harvest,
  // advanced in 50 ms segments at the classic 10 ms step ceiling. The
  // clamped rule oscillates around the tolerable step (grow 5x,
  // over-reach, shrink); the PI controller converges onto it and stays,
  // which is where BM_Rk23PiSecondOfCircuit's speedup comes from.
  const auto cell = pns::sim::paper_pv_array();
  const PvSource source(cell, [](double) { return 800.0; });
  const ConstantPowerLoad load(3.5);
  const EhCircuit circuit(source, load, Capacitor{47e-3, 0.0, 50e3});
  auto steps = [&](StepControl sc) {
    Rk23Options opt;
    opt.rel_tol = 1e-6;
    opt.abs_tol = 1e-8;
    opt.max_step = 0.01;
    opt.step_control = sc;
    Rk23Integrator ig(circuit, opt);
    ig.reset(0.0, 5.0);
    for (double t = 0.0; t < 10.0; t += 0.05) ig.advance(t + 0.05);
    return ig.total_steps() + ig.total_rejected();
  };
  EXPECT_LT(steps(StepControl::kPi), steps(StepControl::kClamped));
}

TEST(Rk23, PiStaysAccurateOnExpDecay) {
  ExpDecay sys(2.0);
  Rk23Options opt;
  opt.rel_tol = 1e-8;
  opt.abs_tol = 1e-10;
  opt.step_control = StepControl::kPi;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 1.0);
  const auto res = ig.advance(2.0);
  EXPECT_FALSE(res.event_fired);
  EXPECT_NEAR(ig.state(), std::exp(-4.0), 1e-7);
}

// ------------------------------------------------- dense-output roots

TEST(DenseOutput, HermiteCubicReproducesEndpointData) {
  const auto c = HermiteCubic::from_step(0.5, 2.0, 1.0, -3.0, -1.0);
  EXPECT_NEAR(c.eval(0.0), 2.0, 1e-12);
  EXPECT_NEAR(c.eval(1.0), 1.0, 1e-12);
  // deriv is d/ds = h * dy/dt.
  EXPECT_NEAR(c.deriv(0.0), 0.5 * -3.0, 1e-12);
  EXPECT_NEAR(c.deriv(1.0), 0.5 * -1.0, 1e-12);
}

TEST(DenseOutput, FindsEarliestOfMultipleCrossings) {
  // y(s) = cos(2 pi s)-ish shape via Hermite data: falls then rises, so
  // level 0 is crossed twice; kFalling must return the first crossing
  // and kRising the second.
  const auto c = HermiteCubic::from_step(1.0, 1.0, 1.0, -8.0, 8.0);
  const auto falling =
      earliest_crossing(c, 0.0, EventDirection::kFalling, 1e-9);
  const auto rising =
      earliest_crossing(c, 0.0, EventDirection::kRising, 1e-9);
  // Falling crossing must exist and precede the rising one.
  ASSERT_TRUE(falling.found);
  ASSERT_TRUE(rising.found);
  EXPECT_LT(falling.s, rising.s);
  const auto any = earliest_crossing(c, 0.0, EventDirection::kAny, 1e-9);
  ASSERT_TRUE(any.found);
  EXPECT_NEAR(any.s, falling.s, 1e-6);
}

TEST(Rk23, DenseRootMatchesBisectionRoot) {
  // The satellite contract: on the same event, the dense-output cubic
  // root and the bisection root agree within the event tolerance.
  ExpDecay sys(1.0);
  const double y0 = 1.0;
  auto run = [&](EventLocalization el) {
    Rk23Options opt;
    opt.event_tol = 1e-9;
    opt.event_localization = el;
    Rk23Integrator ig(sys, opt);
    ig.reset(0.0, y0);
    const auto ev =
        EventSpec{0.5, EventDirection::kFalling, 3};
    return ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  };
  const auto dense = run(EventLocalization::kDenseRoot);
  const auto bisect = run(EventLocalization::kBisection);
  ASSERT_TRUE(dense.event_fired);
  ASSERT_TRUE(bisect.event_fired);
  EXPECT_EQ(dense.event_tag, 3);
  EXPECT_NEAR(dense.t, bisect.t, 1e-7);
  EXPECT_NEAR(dense.t, std::numbers::ln2, 1e-5);
}

TEST(Rk23, DenseRootEarliestOfTwoEventsInOneStepWins) {
  // The dense-root analogue of the ramp test: both thresholds cross in
  // one forced large step; the later-listed (earlier-crossing) event
  // must win under dense localisation too.
  Ramp sys;
  Rk23Options opt;
  opt.initial_step = 5.0;
  opt.event_localization = EventLocalization::kDenseRoot;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 1.0);
  std::vector<EventSpec> evs{
      EventSpec{0.35, EventDirection::kFalling, 1},
      EventSpec{0.65, EventDirection::kFalling, 2},
  };
  const auto res = ig.advance(5.0, evs);
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.event_tag, 2);
  EXPECT_NEAR(res.t, 0.35, 1e-5);
}

TEST(Rk23, DenseRootEventLeavesStateOnTheCrossedSide) {
  // Mapping a dense-output root s -> t -> s through the interpolant can
  // land the committed state an ulp short of the threshold; the next
  // advance() would then re-arm the same event on the un-crossed side
  // and fire it again at the same instant. The integrator snaps the
  // state onto the threshold, so every fired event must leave the state
  // on (or at) the crossed side. Hundreds of levels in both directions
  // make the rounding land on both sides of the root.
  class Quadratic : public OdeSystem {
   public:
    explicit Quadratic(double sign) : sign_(sign) {}
    double derivative(double, double y) const override {
      return sign_ * (0.7 * y + 0.05 * y * y);
    }

   private:
    double sign_;
  };
  Rk23Options opt;
  opt.step_control = StepControl::kPi;
  opt.event_localization = EventLocalization::kDenseRoot;
  opt.rel_tol = 1e-4;
  opt.event_tol = 1e-7;
  opt.max_step = 0.25;
  for (const auto dir : {EventDirection::kFalling, EventDirection::kRising}) {
    const bool falling = dir == EventDirection::kFalling;
    const Quadratic sys(falling ? -1.0 : 1.0);
    int fired = 0;
    for (int k = 0; k < 500; ++k) {
      const double level = falling ? 0.9 - 0.0016 * k : 1.1 + 0.0016 * k;
      Rk23Integrator ig(sys, opt);
      ig.reset(0.0, 1.0);
      const auto ev = EventSpec{level, dir, 1};
      if (!ig.advance(10.0, std::span<const EventSpec>(&ev, 1)).event_fired)
        continue;
      ++fired;
      const double y = ig.state();
      EXPECT_TRUE(falling ? y <= level : y >= level)
          << "level=" << level << " y=" << y;
    }
    EXPECT_EQ(fired, 500);
  }
}

// ------------------------------------- cross-integrator circuit parity

TEST(IntegratorParity, Rk23AndPiAgreeOnPaperCircuit) {
  // The paper's storage node under constant irradiance and a constant-
  // power load, integrated three ways: RK23 at rtol 1e-10 (reference),
  // the legacy rk23 configuration, and the rk23pi configuration (PI
  // control + dense events, looser tolerance). All three must agree on
  // the final node voltage to well under a millivolt over 10 simulated
  // seconds.
  const auto cell = pns::sim::paper_pv_array();
  const PvSource source(cell, [](double) { return 800.0; });
  const ConstantPowerLoad load(3.5);
  const EhCircuit circuit(source, load, Capacitor{47e-3, 0.0, 50e3});

  const double v0 = 5.0;
  auto adaptive = [&](StepControl sc, EventLocalization el, double rtol,
                      double max_step) {
    Rk23Options opt;
    opt.rel_tol = rtol;
    opt.abs_tol = 1e-8;
    opt.max_step = max_step;
    opt.step_control = sc;
    opt.event_localization = el;
    Rk23Integrator ig(circuit, opt);
    ig.reset(0.0, v0);
    ig.advance(10.0);
    return ig.state();
  };
  const double ref = adaptive(StepControl::kClamped,
                              EventLocalization::kBisection, 1e-10, 0.01);
  const double rk23 = adaptive(StepControl::kClamped,
                               EventLocalization::kBisection, 1e-6, 0.01);
  const double rk23pi = adaptive(StepControl::kPi,
                                 EventLocalization::kDenseRoot, 1e-4, 0.25);
  EXPECT_NEAR(rk23, ref, 1e-4);
  EXPECT_NEAR(rk23pi, ref, 5e-4);
  EXPECT_NEAR(rk23pi, rk23, 5e-4);
}

class Rk23ToleranceSweep : public ::testing::TestWithParam<double> {};

// Property: the achieved global error stays within two orders of magnitude
// of the requested relative tolerance for this smooth problem.
TEST_P(Rk23ToleranceSweep, ErrorTracksTolerance) {
  const double rtol = GetParam();
  ExpDecay sys(1.5);
  Rk23Options opt;
  opt.rel_tol = rtol;
  opt.abs_tol = rtol * 1e-2;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 2.0);
  ig.advance(1.0);
  const double err = std::abs(ig.state() - 2.0 * std::exp(-1.5));
  EXPECT_LT(err, rtol * 100.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, Rk23ToleranceSweep,
                         ::testing::Values(1e-3, 1e-4, 1e-5, 1e-6, 1e-7,
                                           1e-8));

}  // namespace
}  // namespace pns::ehsim
