// Fig. 15 -- "CPU usage over time, showing overhead of proposed
// approach."
//
// The paper measures the power-budgeting software at 0.104 % average CPU
// usage (interrupt-driven design) and the monitoring hardware at 1.61 mW
// (0.82 % of minimum system power). This bench reproduces both overhead
// numbers from the model: ISR invocations x modelled ISR cost over a
// 30-minute harvesting run, plus the monitor's power share.
#include <cstdio>
#include <iostream>

#include "hw/monitor.hpp"
#include "sweep/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;
  const soc::Platform board = soc::Platform::odroid_xu4();

  sweep::ScenarioSpec scenario;  // PNS on the paper's board and node
  scenario.condition = trace::WeatherCondition::kPartialSun;  // busy case
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 1800.0;

  std::printf("Fig. 15: controller CPU overhead, 30-minute partial-sun "
              "run (worst-case event rate)\n\n");
  const auto r = sweep::run_scenario(scenario);
  const auto& s = r.controller;
  const double elapsed = r.metrics.duration();

  ConsoleTable table({"quantity", "value"});
  table.add_row({"run length", fmt_mmss(elapsed)});
  table.add_row({"interrupts handled", std::to_string(s.interrupts)});
  table.add_row({"interrupt rate",
                 fmt_double(s.interrupts / elapsed, 2) + " /s"});
  table.add_row({"threshold reprogram passes",
                 std::to_string(s.threshold_moves)});
  table.add_row({"total ISR busy time",
                 fmt_double(s.isr_busy_s * 1e3, 1) + " ms"});
  table.add_row({"avg CPU usage of budgeting software",
                 fmt_double(100.0 * s.cpu_overhead(elapsed), 3) + " %"});
  table.print(std::cout);

  const double p_min =
      board.power.board_power(board.lowest_opp(), board.opps, 1.0);
  const double p_max =
      board.power.board_power(board.highest_opp(), board.opps, 1.0);
  std::printf("\nmonitoring hardware power: %.2f mW = %.2f %% of minimum "
              "(%.2f W) and %.3f %% of maximum (%.2f W) system power\n",
              hw::VoltageMonitor::kPowerW * 1e3,
              100.0 * hw::VoltageMonitor::kPowerW / p_min, p_min,
              100.0 * hw::VoltageMonitor::kPowerW / p_max, p_max);
  std::printf(
      "\nshape check (paper Fig. 15 / Section V.D): interrupt-driven\n"
      "control keeps software overhead around a tenth of a percent\n"
      "(paper: 0.104 %%), and the external comparator hardware costs\n"
      "under 1 %% of even the minimum system power (paper: 0.82 %%).\n");
  return 0;
}
