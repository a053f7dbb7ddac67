// Custom platform: power-neutral scaling on hardware the paper never saw.
//
// The library is not hard-wired to the ODROID XU4 -- every model is a
// parameter. This example builds a hypothetical low-power quad-core IoT
// SoC (homogeneous cluster, 0.9-2.4 V solar input via a boost stage is
// abstracted as a 3.0-4.2 V node) and runs the same controller through a
// partial-sun afternoon on a much smaller PV panel.
#include <cstdio>
#include <iostream>

#include "ehsim/sources.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "trace/weather.hpp"
#include "util/literals.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;
  using namespace pns::literals;

  // --- a homogeneous quad-core MCU-class platform -----------------------
  pns::PiecewiseLinear vdd({50.0_MHz, 200.0_MHz, 400.0_MHz},
                           {1.0, 1.1, 1.25});
  soc::PowerModelParams power{
      .board_base_w = 0.060,
      .little = {.c_eff_f = 0.35e-9,
                 .core_static_w = 2.0e-3,
                 .cluster_static_w = 5.0e-3,
                 .vdd_of_freq = vdd},
      // No big cluster: give it negligible but valid parameters and allow
      // zero big cores only.
      .big = {.c_eff_f = 1e-12,
              .core_static_w = 0.0,
              .cluster_static_w = 0.0,
              .vdd_of_freq = vdd},
  };
  soc::PerfModelParams perf{
      .ipc_little = 1.1,
      .ipc_big = 1.2,
      .parallel_overhead = 0.02,
      .instr_per_frame = 1.0e9,  // "frame" = one sensing/compress cycle
  };
  soc::LatencyModelParams latency{};
  latency.hotplug_base_s = 0.5e-3;
  latency.hotplug_cycles = 0.4e6;
  latency.cluster_switch_s = 0.0;
  latency.hotplug_power_overhead_w = 0.010;

  const soc::Platform iot{
      .name = "quad-core IoT node",
      .opps = soc::OppTable({50.0_MHz, 100.0_MHz, 160.0_MHz, 240.0_MHz,
                             320.0_MHz, 400.0_MHz}),
      .power = soc::PowerModel(power),
      .perf = soc::PerfModel(perf),
      .latency = soc::LatencyModel(latency),
      .min_cores = {1, 0},
      .max_cores = {4, 0},
      .v_min = 3.0,
      .v_max = 4.2,
      .boot_time_s = 0.5,
      .boot_power_w = 0.080,
      .off_power_w = 0.5e-3,
      .hotplug_stall = 0.3,
      .dvfs_stall = 0.05,
      .domains = nullptr,
  };

  // --- a 60 cm^2 panel and broken clouds --------------------------------
  // Sized so that even deep cloud shadows (~30 % transmittance) still
  // cover the node's minimum draw -- the IoT-node analogue of the paper's
  // "provided the harvested supply was sufficient".
  const auto panel =
      ehsim::SolarCell::calibrate(/*voc=*/4.4, /*isc=*/0.15, /*vmpp=*/3.6,
                                  /*rs=*/1.0, /*rp=*/800.0);
  const auto sky = sim::paper_clear_sky();
  auto irradiance = trace::synthesize_irradiance(
      sky, trace::WeatherCondition::kPartialSun, 13.0 * 3600.0,
      14.0 * 3600.0, 0.1, /*seed=*/5);
  const ehsim::PvSource sun(panel, [irradiance](double t) {
    return irradiance(t);
  });

  soc::RaytraceWorkload job(perf.instr_per_frame);

  sim::SimConfig cfg;
  cfg.t_start = 13.0 * 3600.0;
  cfg.t_end = 14.0 * 3600.0;
  cfg.capacitance_f = 22e-3;  // small buffer scaled to the platform
  cfg.vc0 = 3.6;
  cfg.v_target = 3.6;  // the panel's MPP voltage
  // Rescale the monitor divider for the 3.0-4.2 V node (threshold range
  // ~2.9-4.4 V instead of the XU4 default ~3.9-6.1 V).
  cfg.monitor_network.r_top = 330.0e3;
  // A 60 mV window on a 3.6 V node is narrow against the default rtol
  // (1e-4, ~0.4 mV per step). At that tolerance this hour has two
  // regimes, and step-level noise picks one of them: one extra brownout
  // moves time-in-band from ~26 % to ~78 %. From rtol 1e-5 down, every
  // engine agrees on the converged answer.
  cfg.rel_tol = 1e-6;

  // Controller parameters rescaled to the narrower 3.0-4.2 V window, and
  // the tracking window anchored at the panel's MPP (cf. the paper's
  // "target voltage set at the calibrated MPP").
  ctl::ControllerConfig ctl_cfg;
  ctl_cfg.v_width = 0.060;
  ctl_cfg.v_q = 0.020;
  ctl_cfg.alpha = 0.08;
  ctl_cfg.beta = 0.32;
  ctl_cfg.v_ceiling = 3.70;

  sim::SimEngine engine(iot, sun, job, cfg, ctl_cfg);
  const auto r = engine.run();

  ConsoleTable table({"metric", "value"});
  const auto& m = r.metrics;
  table.add_row({"platform", iot.name});
  table.add_row({"panel MPP", fmt_double(panel.mpp(1000.0).power, 2) +
                                  " W @ " +
                                  fmt_double(panel.mpp(1000.0).voltage, 2) +
                                  " V"});
  table.add_row({"brownouts", std::to_string(m.brownouts)});
  table.add_row({"time in +/-5% band",
                 fmt_double(100.0 * m.fraction_in_band(), 1) + " %"});
  table.add_row({"mean node voltage",
                 fmt_double(m.vc_stats.mean(), 3) + " V"});
  table.add_row({"work cycles done", fmt_double(m.frames, 1)});
  table.add_row({"controller interrupts",
                 std::to_string(r.controller.interrupts)});
  table.print(std::cout, "power-neutral scaling on a custom platform");
  return 0;
}
