#include "opt/objective.hpp"

#include <utility>

#include "sweep/journal.hpp"
#include "util/json.hpp"

namespace pns::opt {

SweepStabilityObjective::SweepStabilityObjective(
    sweep::ScenarioSpec base, SweepObjectiveOptions options)
    : base_(std::move(base)), options_(std::move(options)) {}

SweepStabilityObjective SweepStabilityObjective::standard(
    const soc::Platform& platform, std::uint64_t seed,
    SweepObjectiveOptions options) {
  // The ScenarioSpec defaults are already the paper's node: 47 mF, a 5 %
  // band around the 5.3 V MPP, vc0 = 5.3 V, and no series recording.
  sweep::ScenarioSpec base;
  base.platform = platform;
  base.condition = trace::WeatherCondition::kPartialSun;
  base.t_start = 12.0 * 3600.0;
  base.t_end = 12.25 * 3600.0;  // 15 minutes
  base.seed = seed;
  return SweepStabilityObjective(std::move(base), std::move(options));
}

sweep::ScenarioSpec SweepStabilityObjective::scenario_for(
    const ParamSet& p) const {
  ctl::ControllerConfig cc;
  cc.v_width = p.v_width;
  cc.v_q = p.v_q;
  cc.alpha = p.alpha;
  cc.beta = p.beta;
  sweep::ScenarioSpec spec = base_;
  spec.control = sweep::ControlSpec::power_neutral(cc);
  // shortest_double tokens make the label an exact identity of the
  // tuning, which is what journal resume validates against.
  spec.label = "pns/w=" + shortest_double(p.v_width) +
               "/q=" + shortest_double(p.v_q) +
               "/a=" + shortest_double(p.alpha) +
               "/b=" + shortest_double(p.beta);
  return spec;
}

std::vector<double> SweepStabilityObjective::operator()(
    const std::vector<ParamSet>& batch) const {
  // Invalid tunings score -1 without burning a simulation; only the valid
  // ones enter the sweep batch.
  std::vector<double> scores(batch.size(), -1.0);
  std::vector<sweep::ScenarioSpec> specs;
  std::vector<std::size_t> origin;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].valid()) continue;
    specs.push_back(scenario_for(batch[i]));
    origin.push_back(i);
  }
  if (specs.empty()) return scores;

  sweep::SweepRunnerOptions ropt;
  ropt.threads = options_.threads;
  const sweep::SweepRunner runner(ropt);
  std::vector<sweep::SummaryRow> rows;
  if (options_.journal_path.empty()) {
    const auto outcomes = runner.run(specs);
    rows.reserve(outcomes.size());
    for (const auto& o : outcomes) rows.push_back(sweep::summarize(o));
  } else {
    // The journal identity must pin the *base scenario* too: candidate
    // labels only encode the tunings, so without this a journal recorded
    // under one seed/window/weather would silently satisfy a resume
    // under another and return stale scores.
    const std::string identity =
        options_.journal_name + "?cond=" +
        trace::to_string(base_.condition) +
        "&t=" + shortest_double(base_.t_start) + ":" +
        shortest_double(base_.t_end) +
        "&seed=" + std::to_string(base_.seed) +
        "&cap=" + shortest_double(base_.capacitance_f) +
        sweep::pv_identity(base_.pv_mode) +
        "&platform=" + base_.platform.name +
        sweep::integrator_identity(base_.integrator);
    rows = runner.resume(specs, options_.journal_path, identity).rows;
  }
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (rows[i].ok) scores[origin[i]] = rows[i].fraction_in_band;
  return scores;
}

}  // namespace pns::opt
