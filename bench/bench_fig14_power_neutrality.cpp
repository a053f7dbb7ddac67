// Fig. 14 -- "Available (estimated) and consumed power over the course of
// a day."
//
// Runs the controlled system 10:30-16:30 under full sun and prints the
// half-hourly available-power estimate (the array's MPP power, as the
// paper estimates from a contiguous reference array) against the power
// the board actually consumed. Power neutrality means the two series
// track each other, with consumption never persistently exceeding
// availability.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "sweep/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;
  sweep::ScenarioSpec scenario;  // PNS on the paper's board and node
  scenario.condition = trace::WeatherCondition::kFullSun;
  scenario.t_start = 10.5 * 3600.0;
  scenario.t_end = 16.5 * 3600.0;
  scenario.record_series = true;
  scenario.record_interval_s = 5.0;

  std::printf("Fig. 14: available vs consumed power, full-sun day\n\n");
  const auto r = sweep::run_scenario(scenario);

  ConsoleTable table({"time", "available (W)", "consumed (W)",
                      "utilised (%)"});
  RunningStats utilisation;
  for (double t = scenario.t_start; t < scenario.t_end; t += 1800.0) {
    // Average both series over the half-hour bucket.
    const double t_hi = std::min(t + 1800.0, scenario.t_end);
    const double avail =
        r.series.p_available.integral(t, t_hi) / (t_hi - t);
    const double cons = r.series.p_consumed.integral(t, t_hi) / (t_hi - t);
    const double frac = avail > 0.0 ? cons / avail : 0.0;
    utilisation.add(frac);
    table.add_row({fmt_hhmm(t), fmt_double(avail, 2), fmt_double(cons, 2),
                   fmt_double(100.0 * frac, 1)});
  }
  table.print(std::cout);

  const auto& m = r.metrics;
  std::printf("\nexact energy totals: %.2f Wh consumed vs %.2f Wh "
              "harvested (%.1f %% -- storage is too small to absorb any "
              "surplus)\n",
              m.energy_consumed_j / 3600.0, m.energy_harvested_j / 3600.0,
              100.0 * m.energy_consumed_j /
                  std::max(1e-9, m.energy_harvested_j));
  std::printf("bucket-mean consumed/available ratio: %.1f %% (sampled "
              "series; the MPP estimate is an upper bound the same way the "
              "paper's reference-array estimate is)\n",
              100.0 * utilisation.mean());
  std::printf(
      "\nshape check (paper Fig. 14): consumed power closely follows the\n"
      "available-power estimate across the whole day -- the system uses\n"
      "what the sun offers, no more, no less; storage never accumulates\n"
      "a surplus because there is (almost) no storage.\n");
  return 0;
}
