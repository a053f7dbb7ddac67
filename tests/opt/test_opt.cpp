// Tests for parameter search (opt/*): grid and random drivers on synthetic
// objectives, plus a smoke test of the simulation-backed objective.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "opt/grid_search.hpp"
#include "opt/objective.hpp"
#include "opt/random_search.hpp"
#include "sweep/journal.hpp"
#include "util/contracts.hpp"

namespace pns::opt {
namespace {

// Synthetic unimodal objective peaked at the paper's optimum, in the
// batch shape every search driver takes.
std::vector<double> synthetic(const std::vector<ParamSet>& batch) {
  auto gauss = [](double x, double mu, double s) {
    const double d = (x - mu) / s;
    return std::exp(-0.5 * d * d);
  };
  std::vector<double> scores;
  scores.reserve(batch.size());
  for (const ParamSet& p : batch)
    scores.push_back(p.valid() ? gauss(p.v_width, 0.144, 0.1) *
                                     gauss(p.v_q, 0.048, 0.03) *
                                     gauss(p.alpha, 0.12, 0.1) *
                                     gauss(p.beta, 0.48, 0.3)
                               : -1.0);
  return scores;
}

TEST(ParamSet, ValidityRules) {
  EXPECT_TRUE((ParamSet{0.144, 0.048, 0.12, 0.48}).valid());
  EXPECT_FALSE((ParamSet{0.0, 0.048, 0.12, 0.48}).valid());   // width
  EXPECT_FALSE((ParamSet{0.144, 0.0, 0.12, 0.48}).valid());   // vq
  EXPECT_FALSE((ParamSet{0.144, 0.2, 0.12, 0.48}).valid());   // vq >= width
  EXPECT_FALSE((ParamSet{0.144, 0.048, 0.0, 0.48}).valid());  // alpha
  EXPECT_FALSE((ParamSet{0.144, 0.048, 0.5, 0.48}).valid());  // beta<=alpha
}

TEST(GridSearch, FindsPeakCell) {
  const auto grid = GridSpec::paper_neighbourhood();
  const auto result = grid_search(synthetic, grid);
  EXPECT_EQ(result.evaluated.size(), grid.size());
  // The peak cell of the synthetic objective is the paper's optimum.
  EXPECT_DOUBLE_EQ(result.best.v_width, 0.144);
  EXPECT_DOUBLE_EQ(result.best.v_q, 0.048);
  EXPECT_DOUBLE_EQ(result.best.alpha, 0.12);
  EXPECT_DOUBLE_EQ(result.best.beta, 0.48);
  EXPECT_GT(result.best_score, 0.9);
}

TEST(GridSearch, KeepsAllEvaluations) {
  GridSpec grid{{0.1, 0.2}, {0.05}, {0.1}, {0.3}};
  const auto result = grid_search(synthetic, grid);
  ASSERT_EQ(result.evaluated.size(), 2u);
  for (const auto& e : result.evaluated) EXPECT_LE(e.score, result.best_score);
}

TEST(GridSearch, EmptyAxisRejected) {
  GridSpec grid{{}, {0.05}, {0.1}, {0.3}};
  EXPECT_THROW(grid_search(synthetic, grid), pns::ContractViolation);
}

TEST(GridSearch, InvalidCombosScoredNegative) {
  // vq > width for one combination.
  GridSpec grid{{0.1}, {0.05, 0.2}, {0.1}, {0.3}};
  const auto result = grid_search(synthetic, grid);
  int invalid = 0;
  for (const auto& e : result.evaluated)
    if (e.score < 0.0) ++invalid;
  EXPECT_EQ(invalid, 1);
}

TEST(RandomSearch, DeterministicForSeed) {
  RandomSearchSpec spec;
  spec.iterations = 32;
  spec.seed = 99;
  const auto a = random_search(synthetic, spec);
  const auto b = random_search(synthetic, spec);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_DOUBLE_EQ(a.best.v_width, b.best.v_width);
}

TEST(RandomSearch, SamplesValidParamsWithinRanges) {
  RandomSearchSpec spec;
  spec.iterations = 64;
  const auto result = random_search(synthetic, spec);
  EXPECT_EQ(result.evaluated.size(), 64u);
  for (const auto& e : result.evaluated) {
    EXPECT_TRUE(e.params.valid());
    EXPECT_GE(e.params.v_width, spec.v_width_lo);
    EXPECT_LE(e.params.v_width, spec.v_width_hi);
    EXPECT_GE(e.params.beta, spec.beta_lo);
    EXPECT_LE(e.params.beta, spec.beta_hi);
  }
}

TEST(RandomSearch, MoreIterationsNeverWorse) {
  RandomSearchSpec small;
  small.iterations = 8;
  small.seed = 7;
  RandomSearchSpec large;
  large.iterations = 64;
  large.seed = 7;
  const auto a = random_search(synthetic, small);
  const auto b = random_search(synthetic, large);
  EXPECT_GE(b.best_score, a.best_score);  // same stream prefix
}

TEST(BatchSearch, GridExpandIsCanonicalOrder) {
  GridSpec grid{{0.1, 0.2}, {0.05}, {0.1}, {0.3, 0.4}};
  const auto candidates = grid.expand();
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_DOUBLE_EQ(candidates[0].v_width, 0.1);
  EXPECT_DOUBLE_EQ(candidates[0].beta, 0.3);
  EXPECT_DOUBLE_EQ(candidates[1].beta, 0.4);  // beta innermost
  EXPECT_DOUBLE_EQ(candidates[2].v_width, 0.2);
}

TEST(SweepStabilityObjective, JournalCheckpointsEvaluations) {
  static soc::Platform platform = soc::Platform::odroid_xu4();
  const auto tmp = std::filesystem::temp_directory_path() /
                   ("pns-opt-journal-" + std::to_string(::getpid()) +
                    ".jsonl");
  std::filesystem::remove(tmp);

  SweepObjectiveOptions oopt;
  oopt.threads = 2;
  oopt.journal_path = tmp.string();
  // Short window: this test pays for real simulations.
  sweep::ScenarioSpec base;
  base.platform = platform;
  base.condition = trace::WeatherCondition::kPartialSun;
  base.t_start = 12.0 * 3600.0;
  base.t_end = base.t_start + 60.0;
  base.seed = 3;
  const SweepStabilityObjective objective(base, oopt);

  const std::vector<ParamSet> candidates = {
      {0.144, 0.0479, 0.120, 0.479}, {0.2, 0.08, 0.1, 0.3}};
  const auto first = objective(candidates);
  // Second evaluation answers from the journal; scores must be identical
  // (and the journal holds one row per valid candidate).
  const auto second = objective(candidates);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]);
  const auto journal = sweep::read_journal(tmp.string());
  EXPECT_EQ(journal.rows.size(), candidates.size());

  // A changed base scenario (different seed/window/weather) must refuse
  // the journal instead of silently returning the old study's scores.
  sweep::ScenarioSpec other = base;
  other.seed = base.seed + 1;
  const SweepStabilityObjective mismatched(other, oopt);
  EXPECT_THROW(mismatched(candidates), sweep::JournalError);

  // So must a different integrator: a journal of the legacy rk23 engine
  // (the default when such journals were first written) never answers
  // for the default rk23pi.
  sweep::ScenarioSpec legacy = base;
  legacy.integrator = sweep::IntegratorSpec::parse("rk23");
  const SweepStabilityObjective other_engine(legacy, oopt);
  EXPECT_THROW(other_engine(candidates), sweep::JournalError);
  std::filesystem::remove(tmp);
}

TEST(SweepStabilityObjective, ScoresRealSimulation) {
  // Tiny scenario to keep the test fast: 2 simulated minutes.
  sweep::ScenarioSpec scenario;
  scenario.condition = trace::WeatherCondition::kFullSun;
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 120.0;
  const SweepStabilityObjective obj(scenario);

  const auto scores = obj({ParamSet{0.144, 0.0479, 0.120, 0.479},
                           ParamSet{0.1, 0.2, 0.1, 0.5}});
  ASSERT_EQ(scores.size(), 2u);
  const double good = scores[0];
  EXPECT_GE(good, 0.0);
  EXPECT_LE(good, 1.0);
  EXPECT_GT(good, 0.3);  // paper-tuned parameters hold the band mostly

  const double invalid = scores[1];
  EXPECT_DOUBLE_EQ(invalid, -1.0);
}

}  // namespace
}  // namespace pns::opt
