// Tests for the domain-aware governor wrapper (governors/multi_domain).
//
// Two layers: direct unit tests of the demand-arbitration and staggered
// sampling grids against a hand-built two-domain topology, and a
// differential that replays the engine's hold_until elision loop to pin
// the satellite contract: skipping wrapper ticks never skips a *due*
// domain tick, whatever the stagger. (Full-trajectory byte equality
// between elide on/off is not a meaningful contract -- segment
// boundaries feed the adaptive step controller and the per-segment
// harvest quadrature, so even a constant mono governor's metrics differ
// at the last few digits. The invariant that must hold exactly is the
// decision sequence, which is what this file compares.)
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "governors/multi_domain.hpp"
#include "soc/platform.hpp"
#include "soc/topology.hpp"
#include "util/params.hpp"

namespace pns::gov {
namespace {

soc::Domain make_domain(std::string name, soc::OppTable opps,
                        soc::CoreConfig cores, double share) {
  const soc::Platform xu4 = soc::Platform::odroid_xu4();
  const soc::PowerModelParams& pw = xu4.power.params();
  return soc::Domain{
      .name = std::move(name),
      .opps = std::move(opps),
      .power = soc::PowerModel({.board_base_w = 0.0,
                                .little = pw.little,
                                .big = pw.big}),
      .perf = soc::PerfModel(xu4.perf.params()),
      .cores = cores,
      .workload_share = share,
  };
}

/// Two domains under the demand arbiter (every joint level is a single
/// domain index step, which makes allocations easy to reason about).
soc::Platform two_domain_platform() {
  soc::PlatformTopology topo;
  topo.name = "test-md";
  topo.policy = soc::ArbiterPolicy::kDemand;
  topo.domains.push_back(make_domain(
      "little", soc::OppTable::paper_ladder(), {4, 0}, 0.4));
  topo.domains.push_back(make_domain(
      "big", soc::OppTable({0.3e9, 0.9e9, 1.5e9, 2.0e9}), {0, 4}, 0.6));
  return topo.compile();
}

GovernorContext at(double t, double util, std::size_t level,
                   const soc::Platform& p) {
  return GovernorContext{t, util, soc::OperatingPoint{level, p.min_cores}};
}

TEST(MultiDomainGovernor, RequiresMultiDomainPlatform) {
  const soc::Platform mono = soc::Platform::odroid_xu4();
  EXPECT_THROW(MultiDomainGovernor("ondemand", mono, {}),
               std::invalid_argument);
}

TEST(MultiDomainGovernor, ArbitratesDemandsOntoTheMinimalJointLevel) {
  const soc::Platform p = two_domain_platform();
  const soc::MultiDomainModel& m = *p.domains;
  const std::size_t top = m.level_count() - 1;

  MultiDomainGovernor g("ondemand", p, {});
  // Saturated utilisation: every inner governor demands its ladder top,
  // and only the all-max joint level satisfies both.
  EXPECT_EQ(g.decide(at(0.0, 1.0, 0, p)).freq_index, top);
  // Idle utilisation: every inner steps to its floor; the minimal level
  // covering {0, 0} is the all-min row.
  EXPECT_EQ(g.decide(at(0.1, 0.0, top, p)).freq_index, 0u);
}

TEST(MultiDomainGovernor, StaggeredDomainsSampleOnTheirOwnGrids) {
  const soc::Platform p = two_domain_platform();
  const soc::MultiDomainModel& m = *p.domains;
  const std::size_t top = m.level_count() - 1;
  const std::size_t big_top = m.domains[1].opps.max_index();

  ParamMap params;
  params.set("period", "0.1");
  params.set("stagger", "2");
  MultiDomainGovernor g("ondemand", p, params);

  // t=0: both domains anchor and sample; saturated -> all-max.
  EXPECT_EQ(g.decide(at(0.0, 1.0, 0, p)).freq_index, top);
  // t=0.1: only domain 0 (period 0.1) is due; domain 1 (period 0.2)
  // keeps its max demand, so the arbitrated level must still grant the
  // big domain its ladder top even though utilisation collapsed.
  const std::size_t l1 = g.decide(at(0.1, 0.0, top, p)).freq_index;
  EXPECT_EQ(m.levels[l1][1], big_top) << "big domain sampled early";
  // t=0.2: domain 1's grid fires; with idle utilisation both demands
  // drop to the floor and the wrapper releases the whole budget.
  EXPECT_EQ(g.decide(at(0.2, 0.0, l1, p)).freq_index, 0u);
}

TEST(MultiDomainGovernor, HoldUntilPromisesNothingBeforeFirstTick) {
  const soc::Platform p = two_domain_platform();
  MultiDomainGovernor g("ondemand", p, {});
  const auto ctx = at(5.0, 1.0, 0, p);
  EXPECT_EQ(g.hold_until(ctx), ctx.t);
}

TEST(MultiDomainGovernor, HoldUntilIsAFixedPointOnlyWhenDemandsAreMet) {
  const soc::Platform p = two_domain_platform();
  const std::size_t top = p.domains->level_count() - 1;
  MultiDomainGovernor g("ondemand", p, {});
  g.decide(at(0.0, 1.0, 0, p));  // demands all-max

  // Current allocation below the demand: the next tick moves, so no
  // promise may be made.
  EXPECT_EQ(g.hold_until(at(0.1, 1.0, 0, p)), 0.1);
  // At the demanded level with saturated utilisation, every inner
  // governor is at its jump-to-max fixed point: hold forever.
  EXPECT_EQ(g.hold_until(at(0.1, 1.0, top, p)),
            std::numeric_limits<double>::infinity());
}

TEST(MultiDomainGovernor, ResetReanchorsTheDomainGrids) {
  const soc::Platform p = two_domain_platform();
  const std::size_t top = p.domains->level_count() - 1;
  MultiDomainGovernor g("ondemand", p, {});
  g.decide(at(0.0, 1.0, 0, p));
  g.reset();
  // After reset the wrapper must behave like a fresh instance: no
  // promise, and the first decide re-anchors every domain at its time.
  EXPECT_EQ(g.hold_until(at(7.3, 1.0, top, p)), 7.3);
  EXPECT_EQ(g.decide(at(7.3, 1.0, 0, p)).freq_index, top);
}

TEST(MultiDomainGovernor, ParamListMergesWrapperAndInnerKeys) {
  const auto params = MultiDomainGovernor::params_for("ondemand");
  int period = 0, stagger = 0, up_threshold = 0;
  for (const auto& info : params) {
    period += info.key == "period";
    stagger += info.key == "stagger";
    up_threshold += info.key == "up_threshold";
  }
  EXPECT_EQ(period, 1);  // the wrapper's, not a duplicate inner one
  EXPECT_EQ(stagger, 1);
  EXPECT_EQ(up_threshold, 1);
}

// ------------------------------------------------- elision differential

/// One wrapper-tick trace: the joint level after each decide().
struct TickTrace {
  std::vector<double> times;
  std::vector<std::size_t> levels;
};

/// Reference run: decide at every wrapper tick, no elision.
TickTrace run_unelided(Governor& g, const soc::Platform& p, double util,
                       double period, double t_end) {
  TickTrace tr;
  std::size_t level = 0;
  for (double t = 0.0; t <= t_end + 1e-12; t += period) {
    level = g.decide(at(t, util, level, p)).freq_index;
    tr.times.push_back(t);
    tr.levels.push_back(level);
  }
  return tr;
}

/// Elided run: mirrors the engine's elision loop (sim/engine.cpp,
/// SimEngine::governor_stop) -- consult hold_until, quantise the hold
/// onto the tick grid with the engine's kTimeEps, skip straight to the
/// first tick that could act, decide there. Returns the ticks actually taken.
TickTrace run_elided(Governor& g, const soc::Platform& p, double util,
                     double period, double t_end) {
  constexpr double kTimeEps = 1e-9;  // sim/engine.cpp
  TickTrace tr;
  std::size_t level = 0;
  double next_tick = 0.0;
  while (next_tick <= t_end + 1e-12) {
    const double hold = g.hold_until(at(next_tick, util, level, p));
    if (hold == std::numeric_limits<double>::infinity()) break;
    double tick = next_tick;
    while (tick + kTimeEps < hold) tick += period;
    if (tick > t_end + 1e-12) break;
    level = g.decide(at(tick, util, level, p)).freq_index;
    tr.times.push_back(tick);
    tr.levels.push_back(level);
    next_tick = tick + period;
  }
  return tr;
}

TEST(MultiDomainGovernor, TickElisionNeverSkipsADueStaggeredTick) {
  // The satellite regression: per-domain governor grids must compose
  // with Governor::hold_until elision. Due times are absolute (never
  // countdown counters), so skipping wrapper ticks must never skip a
  // *due domain tick* -- the elided run's decisions must match the
  // unelided run's at the same instants, and every tick the elided run
  // chose to skip must have been a genuine no-op in the reference.
  // Non-integer staggers put domain dues between wrapper ticks, and
  // interactive's finite holds exercise the first-due-after-hold jump
  // arithmetic.
  const soc::Platform p = two_domain_platform();
  const double period = 0.1, t_end = 30.0;
  std::size_t ticks_elided = 0;  // guard against a vacuous pass
  for (const char* inner : {"ondemand", "conservative", "interactive"}) {
    for (const char* stagger : {"1", "2", "2.5", "3.7"}) {
      for (const double util : {0.0, 0.55, 1.0}) {
        ParamMap params;
        params.set("period", "0.1");
        params.set("stagger", stagger);
        MultiDomainGovernor ref(inner, p, params);
        MultiDomainGovernor el(inner, p, params);
        const TickTrace full =
            run_unelided(ref, p, util, period, t_end);
        const TickTrace skip = run_elided(el, p, util, period, t_end);

        const std::string tag = std::string(inner) + " stagger=" +
                                stagger + " util=" +
                                std::to_string(util);
        // Walk the reference; every elided decide must agree with it,
        // and every reference tick between elided decides must have
        // kept the level constant (else a due tick was skipped).
        std::size_t j = 0;
        std::size_t level = 0;
        for (std::size_t i = 0; i < full.times.size(); ++i) {
          if (j < skip.times.size() &&
              std::abs(skip.times[j] - full.times[i]) < 1e-9) {
            ASSERT_EQ(skip.levels[j], full.levels[i])
                << tag << " diverges at t=" << full.times[i];
            level = full.levels[i];
            ++j;
          } else {
            ASSERT_EQ(full.levels[i], level)
                << tag << ": reference acted at t=" << full.times[i]
                << " but the elided run skipped that tick";
          }
        }
        ASSERT_EQ(j, skip.times.size()) << tag << ": off-grid tick";
        ticks_elided += full.times.size() - skip.times.size();
      }
    }
  }
  // The differential only means something if holds actually elide work.
  EXPECT_GT(ticks_elided, 100u);
}

}  // namespace
}  // namespace pns::gov
