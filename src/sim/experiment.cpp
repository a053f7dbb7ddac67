#include "sim/experiment.hpp"

#include "util/contracts.hpp"

namespace pns::sim {

ehsim::SolarCell paper_pv_array() {
  // Fig. 13 anchors: Voc ~ 6.8 V, Isc ~ 1.15 A, MPP voltage 5.3 V.
  static const ehsim::SolarCell cell = ehsim::SolarCell::calibrate(
      /*voc=*/6.8, /*isc=*/1.15, /*vmpp=*/5.3, /*rs=*/0.30, /*rp=*/200.0);
  return cell;
}

ehsim::SolarCell fig1_pv_cell() {
  // 250 cm^2 vs 1340 cm^2 -> area factor ~0.1866; same cell chemistry.
  return paper_pv_array().scaled_area(250.0 / 1340.0);
}

std::shared_ptr<const ehsim::PvTable> paper_pv_table() {
  static const std::shared_ptr<const ehsim::PvTable> table =
      std::make_shared<const ehsim::PvTable>(paper_pv_array());
  return table;
}

trace::ClearSky paper_clear_sky() {
  trace::ClearSkyParams p;
  p.sunrise_s = 5.0 * 3600.0;   // UK summer: ~05:00
  p.sunset_s = 21.0 * 3600.0;   // ~21:00
  p.peak_wm2 = 1000.0;
  p.shape = 1.2;
  return trace::ClearSky(p);
}

soc::OperatingPoint balanced_opp(const soc::Platform& platform,
                                 double watts) {
  soc::OperatingPoint best = platform.lowest_opp();
  double best_rate = -1.0;
  for (int nl = platform.min_cores.n_little;
       nl <= platform.max_cores.n_little; ++nl) {
    for (int nb = platform.min_cores.n_big; nb <= platform.max_cores.n_big;
         ++nb) {
      for (std::size_t fi = 0; fi < platform.opps.size(); ++fi) {
        const soc::OperatingPoint opp{fi, {nl, nb}};
        if (platform.board_power(opp, 1.0) > watts) continue;
        const double rate = platform.instruction_rate(opp, 1.0);
        if (rate > best_rate) {
          best_rate = rate;
          best = opp;
        }
      }
    }
  }
  return best;
}

ControlSelection ControlSelection::power_neutral(
    ctl::ControllerConfig config) {
  ControlSelection sel;
  sel.kind = ControlKind::kPowerNeutral;
  sel.controller = config;
  return sel;
}

ControlSelection ControlSelection::governed(
    std::unique_ptr<gov::Governor> governor) {
  ControlSelection sel;
  sel.kind = ControlKind::kGovernor;
  sel.governor = std::move(governor);
  return sel;
}

ControlSelection ControlSelection::pinned(
    std::optional<soc::OperatingPoint> opp) {
  ControlSelection sel;
  sel.kind = ControlKind::kStatic;
  sel.static_opp = opp;
  return sel;
}

SimResult run_pv_control(const soc::Platform& platform,
                         const ehsim::CurrentSource& source,
                         ControlSelection control, SimConfig sim_config,
                         bool warm_start) {
  soc::RaytraceWorkload workload(platform.perf.params().instr_per_frame);
  switch (control.kind) {
    case ControlKind::kPowerNeutral: {
      if (warm_start) {
        // Anchor the regulation window at the calibrated MPP target (the
        // paper sets Vc,target to the array's MPP of 5.3 V); the window
        // may still track all the way down when harvest is scarce.
        if (control.controller.v_ceiling == 0.0 && sim_config.v_target > 0.0)
          control.controller.v_ceiling =
              sim_config.v_target * (1.0 + sim_config.band_fraction) - 0.02;
        // Warm start: the paper records systems that are already in
        // regulation, so begin at the best OPP the opening harvest can
        // sustain.
        if (!sim_config.initial_opp)
          sim_config.initial_opp = balanced_opp(
              platform, source.available_power(sim_config.t_start));
      }
      SimEngine engine(platform, source, workload, std::move(sim_config),
                       control.controller);
      return engine.run();
    }
    case ControlKind::kGovernor: {
      // Stock Linux keeps every core online; governors only move
      // frequency.
      if (warm_start && !sim_config.initial_opp)
        sim_config.initial_opp =
            soc::OperatingPoint{platform.opps.min_index(),
                                platform.max_cores};
      SimEngine engine(platform, source, workload, std::move(sim_config),
                       std::move(control.governor));
      return engine.run();
    }
    case ControlKind::kStatic: {
      if (control.static_opp) sim_config.initial_opp = control.static_opp;
      SimEngine engine(platform, source, workload, std::move(sim_config));
      return engine.run();
    }
  }
  PNS_EXPECTS(false && "unreachable: unknown ControlKind");
  return {};
}

SimResult run_controlled_supply(const soc::Platform& platform,
                                const trace::SupplyProfile& profile,
                                double r_series, SimConfig sim_config,
                                ctl::ControllerConfig controller) {
  ehsim::ControlledSupply source(profile.as_function(), r_series);
  soc::RaytraceWorkload workload(platform.perf.params().instr_per_frame);
  SimEngine engine(platform, source, workload, std::move(sim_config),
                   controller);
  return engine.run();
}

}  // namespace pns::sim
