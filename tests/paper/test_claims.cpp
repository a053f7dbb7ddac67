// Paper-claim oracle: the qualitative results of Table I/II, Fig. 6 and
// the Section III parameter study, asserted instead of printed.
//
// Every bench ends in a "shape check" paragraph that states what the
// paper's figure or table shows; these tests turn those sentences into
// predicates over the sweep presets' own seeds and windows. Each claim
// runs under every engine configuration a user can select -- the legacy
// rk23, the default rk23pi, and rk23pi with tabulated PV -- so a change
// of default numerics (or a regression in either engine) that flips a
// paper conclusion fails here, not in a reader's eye.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "opt/grid_search.hpp"
#include "opt/objective.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/presets.hpp"
#include "sweep/runner.hpp"

namespace pns {
namespace {

struct Leg {
  const char* name;
  const char* integrator;
  ehsim::PvSource::Mode pv_mode;
};

void PrintTo(const Leg& leg, std::ostream* os) { *os << leg.name; }

const Leg kLegs[] = {
    {"rk23", "rk23", ehsim::PvSource::Mode::kExact},
    {"rk23pi", "rk23pi", ehsim::PvSource::Mode::kExact},
    {"rk23pi_tabulated", "rk23pi", ehsim::PvSource::Mode::kTabulated},
};

class PaperClaims : public ::testing::TestWithParam<Leg> {
 protected:
  void configure(sweep::ScenarioSpec& base) const {
    base.integrator = sweep::IntegratorSpec::parse(GetParam().integrator);
    base.pv_mode = GetParam().pv_mode;
  }

  std::vector<sweep::SweepOutcome> run(sweep::SweepSpec sw) const {
    configure(sw.base);
    auto outcomes = sweep::SweepRunner().run(sw);
    for (const auto& o : outcomes)
      EXPECT_TRUE(o.ok) << o.spec.label << ": " << o.error;
    return outcomes;
  }
};

// Table II: performance/ondemand/interactive pin near-max draw and
// conservative ramps up -- all four brown out within seconds; powersave
// survives the hour at minimum performance; the proposed controller
// survives the hour and completes the most instructions.
TEST_P(PaperClaims, TableIIOnlyPowersaveAndPnsSurviveAndPnsDoesMostWork) {
  const sweep::SweepPreset* preset = sweep::find_sweep_preset("table2");
  ASSERT_NE(preset, nullptr);
  std::map<std::uint64_t, std::map<std::string, sweep::SummaryRow>> by_seed;
  for (const auto& o : run(preset->make(60.0)))
    by_seed[o.spec.seed][o.spec.control.kind] = sweep::summarize(o);
  ASSERT_EQ(by_seed.size(), 3u);

  for (const auto& [seed, rows] : by_seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(rows.size(), 6u);
    const sweep::SummaryRow& pns = rows.at("pns");
    EXPECT_EQ(pns.brownouts, 0u);
    EXPECT_EQ(pns.lifetime_s, pns.duration_s);
    for (const char* g :
         {"performance", "ondemand", "interactive", "conservative"}) {
      const sweep::SummaryRow& r = rows.at(std::string("gov:") + g);
      EXPECT_GE(r.brownouts, 1u) << g;
      EXPECT_LT(r.lifetime_s, 10.0) << g << " should brown out in seconds";
      EXPECT_LT(r.instructions, pns.instructions) << g;
    }
    const sweep::SummaryRow& powersave = rows.at("gov:powersave");
    EXPECT_EQ(powersave.brownouts, 0u);
    EXPECT_EQ(powersave.lifetime_s, powersave.duration_s);
    EXPECT_LT(powersave.instructions, pns.instructions);
  }
}

// Table I context: the paper picked a 47 mF buffer. Under full sun the
// controller survives the hour from 47 mF upwards, and with exact PV it
// browns out with the smaller buffers -- the boundary sits exactly at the
// paper's choice. Below 47 mF the regulation is marginal: whether it
// collapses ~2010 s into the hour hinges on perturbations as small as the
// PV table's interpolation error (with tabulated PV, 10 mF survives under
// both engines and 22 mF browns out under rk23pi only), so the tabulated
// leg asserts the survival half of the boundary alone.
TEST_P(PaperClaims, TableIFullSunBrownoutBoundaryIsThePaperBuffer) {
  const sweep::SweepPreset* preset = sweep::find_sweep_preset("capacitance");
  ASSERT_NE(preset, nullptr);
  sweep::SweepSpec sw = preset->make(60.0);
  sw.conditions = {trace::WeatherCondition::kFullSun};
  const auto outcomes = run(sw);
  ASSERT_EQ(outcomes.size(), 5u);
  const bool exact_pv = GetParam().pv_mode == ehsim::PvSource::Mode::kExact;
  for (const auto& o : outcomes) {
    const auto brownouts = o.result.metrics.brownouts;
    if (o.spec.capacitance_f >= 47e-3) {
      EXPECT_EQ(brownouts, 0u) << o.spec.label;
    } else if (exact_pv) {
      EXPECT_GE(brownouts, 1u) << o.spec.label;
    }
  }
}

// Fig. 6: without control VC falls through Vmin during the shadow at
// every depth; with control the OPP collapses and VC stays above Vmin
// whenever the shadowed array still covers the lowest OPP (depth >= 0.4).
TEST_P(PaperClaims, Fig6ControllerRidesOutShadowsWhereStaticFails) {
  const auto outcomes = run(sweep::fig6_depth_sweep());
  ASSERT_EQ(outcomes.size(), 8u);
  std::size_t controlled = 0;
  for (const auto& o : outcomes) {
    const auto brownouts = o.result.metrics.brownouts;
    if (o.spec.control.kind == "static") {
      EXPECT_GE(brownouts, 1u) << o.spec.label;
    } else if (o.spec.shadow.depth >= 0.4) {
      EXPECT_EQ(brownouts, 0u) << o.spec.label;
      ++controlled;
    }
  }
  EXPECT_EQ(controlled, 2u);
}

// Section III: the paper's optimum (144 mV, 47.9 mV, 0.120, 0.479) scores
// within one percentage point of the best tuning in the grid around it,
// on bench_param_selection's 10-minute partial-sun window at seed 7.
TEST_P(PaperClaims, SectionIIIPaperOptimumWithinOnePointOfGridBest) {
  sweep::ScenarioSpec base;
  base.condition = trace::WeatherCondition::kPartialSun;
  base.t_start = 12.0 * 3600.0;
  base.t_end = base.t_start + 600.0;
  base.seed = 7;
  configure(base);
  const opt::SweepStabilityObjective objective(base);
  const auto result =
      opt::grid_search(objective, opt::GridSpec::paper_neighbourhood());
  const double paper =
      objective(std::vector<opt::ParamSet>{{0.144, 0.0479, 0.120, 0.479}})[0];
  EXPECT_GT(result.best_score, 0.0);
  EXPECT_GE(paper, result.best_score - 0.01)
      << "paper optimum " << 100.0 * paper << " % vs grid best "
      << 100.0 * result.best_score << " %";
}

INSTANTIATE_TEST_SUITE_P(Engines, PaperClaims, ::testing::ValuesIn(kLegs),
                         [](const ::testing::TestParamInfo<Leg>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace pns
