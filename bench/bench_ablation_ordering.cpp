// Ablation -- transition ordering policy under live harvesting.
//
// Table I sizes the worst-case transition offline; this ablation checks
// that the ordering choice matters *in closed loop* too: the same
// full-sun scenario is run with core-first (the paper's
// choice) and freq-first orderings at several buffer sizes, recording
// survival and voltage stability. With small buffers, freq-first's slow
// worst-case descent costs brownouts. The whole grid is one
// sweep::SweepRunner batch, so its 24 runs fan out across every core.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "sweep/runner.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;
  const std::vector<double> caps_mf{3.0, 8.0, 20.0, 47.0};
  const std::vector<soc::OrderingPolicy> orderings{
      soc::OrderingPolicy::kCoreFirst, soc::OrderingPolicy::kFreqFirst};
  const std::vector<std::uint64_t> seeds{11, 22, 33};

  std::vector<sweep::ScenarioSpec> specs;
  for (double cap_mf : caps_mf) {
    for (auto ordering : orderings) {
      for (std::uint64_t seed : seeds) {
        sweep::ScenarioSpec s;  // PNS on the paper's board
        s.condition = trace::WeatherCondition::kFullSun;
        s.t_start = 12.0 * 3600.0;
        s.t_end = s.t_start + 900.0;
        s.seed = seed;
        s.capacitance_f = cap_mf * 1e-3;
        ctl::ControllerConfig ctl_cfg;
        ctl_cfg.ordering = ordering;
        s.control = sweep::ControlSpec::power_neutral(ctl_cfg);
        specs.push_back(std::move(s));
      }
    }
  }
  const auto outcomes = sweep::SweepRunner().run(specs);
  for (const auto& o : outcomes) {
    if (!o.ok) {
      std::fprintf(stderr, "scenario failed: %s\n", o.error.c_str());
      return 1;
    }
  }

  std::printf("Ablation: transition ordering under live full-sun "
              "harvesting (15 min x 3 seeds; supply always sufficient, so\n"
              "every brownout is a lost shedding race, the effect Table I "
              "sizes for)\n\n");

  ConsoleTable table({"buffer (mF)", "ordering", "brownouts",
                      "time-in-band (%)", "instructions (G)"});
  auto next = outcomes.begin();  // outcomes arrive in spec order
  for (double cap_mf : caps_mf) {
    for (auto ordering : orderings) {
      std::size_t brownouts = 0;
      double band = 0.0, instr = 0.0;
      for (std::size_t i = 0; i < seeds.size(); ++i, ++next) {
        const auto& m = next->result.metrics;
        brownouts += m.brownouts;
        band += m.fraction_in_band() / 3.0;
        instr += m.instructions / 3.0;
      }
      table.add_row({fmt_double(cap_mf, 0), to_string(ordering),
                     std::to_string(brownouts), fmt_double(100.0 * band, 1),
                     fmt_double(instr / 1e9, 1)});
    }
  }
  table.print(std::cout);

  std::printf(
      "\nreading: in gentle closed-loop operation the two orderings are\n"
      "nearly indistinguishable -- steady regulation is dominated by DVFS\n"
      "steps and compound core+frequency descents are rare. The ordering\n"
      "asymmetry concentrates in the worst-case full descent that Table I\n"
      "sizes the buffer for: it bounds the capacitor, not the everyday\n"
      "behaviour. (Undersized buffers fail for both orderings alike, from\n"
      "ripple amplitude rather than transition charge.)\n");
  return 0;
}
