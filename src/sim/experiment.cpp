#include "sim/experiment.hpp"

#include "governors/registry.hpp"
#include "governors/static_governor.hpp"
#include "util/contracts.hpp"

namespace pns::sim {

ehsim::SolarCell paper_pv_array() {
  // Fig. 13 anchors: Voc ~ 6.8 V, Isc ~ 1.15 A, MPP voltage 5.3 V.
  return ehsim::SolarCell::calibrate(/*voc=*/6.8, /*isc=*/1.15,
                                     /*vmpp=*/5.3, /*rs=*/0.30,
                                     /*rp=*/200.0);
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

SimConfig solar_sim_config(const SolarScenario& scenario) {
  SimConfig cfg;
  cfg.t_start = scenario.t_start;
  cfg.t_end = scenario.t_end;
  cfg.capacitance_f = 47e-3;  // the paper's buffer
  cfg.v_target = 5.3;         // calibrated MPP voltage (Fig. 12)
  cfg.band_fraction = 0.05;
  cfg.vc0 = 5.3;
  return cfg;
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

pns::PiecewiseLinear solar_weather_trace(const SolarScenario& scenario) {
  return trace::synthesize_irradiance(
      paper_clear_sky(), scenario.condition, scenario.t_start - 60.0,
      scenario.t_end + 60.0, scenario.trace_dt_s, scenario.seed);
}

/// The returned source shares the (immutable) trace via the closures; the
/// mutable hint turns the integrator's near-monotone sampling of the long
/// trace into O(1) lookups (bit-identical to the plain binary-search
/// evaluation).
ehsim::PvSource make_solar_source(
    const SolarScenario& scenario,
    std::shared_ptr<const pns::PiecewiseLinear> trace) {
  auto sample = [trace, hint = std::size_t{0}](double t) mutable {
    return trace->eval_hinted(t, hint);
  };
  ehsim::PvSource source =
      scenario.pv_mode == ehsim::PvSource::Mode::kTabulated
          ? ehsim::PvSource(paper_pv_array(), std::move(sample),
                            paper_pv_table())
          : ehsim::PvSource(paper_pv_array(), std::move(sample));
  source.set_irradiance_hold(
      [trace = std::move(trace), hint = std::size_t{0}](double t) mutable {
        return trace->flat_until_hinted(t, hint);
      });
  return source;
}

ehsim::PvSource make_solar_source(const SolarScenario& scenario) {
  return make_solar_source(
      scenario,
      std::make_shared<const pns::PiecewiseLinear>(
          solar_weather_trace(scenario)));
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

SimResult run_solar_power_neutral(const soc::Platform& platform,
                                  const SolarScenario& scenario,
                                  SimConfig sim_config,
                                  ctl::ControllerConfig controller) {
  const auto source = make_solar_source(scenario);
  return run_pv_control(platform, source,
                        ControlSelection::power_neutral(controller),
                        std::move(sim_config), /*warm_start=*/true);
}

SimResult run_solar_governor(const soc::Platform& platform,
                             const SolarScenario& scenario,
                             const std::string& governor_name,
                             SimConfig sim_config) {
  const auto source = make_solar_source(scenario);
  return run_pv_control(
      platform, source,
      ControlSelection::governed(gov::make_governor(governor_name, platform)),
      std::move(sim_config), /*warm_start=*/true);
}

SimResult run_solar_static(const soc::Platform& platform,
                           const SolarScenario& scenario,
                           const soc::OperatingPoint& opp,
                           SimConfig sim_config) {
  const auto source = make_solar_source(scenario);
  return run_pv_control(platform, source, ControlSelection::pinned(opp),
                        std::move(sim_config), /*warm_start=*/true);
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
