// Built-in integrator kinds (provider domain: ehsim/ + sim/).
//
// Two integration engines drive the storage-node ODE out of the box:
//   rk23    the original adaptive Bogacki-Shampine stepper with the
//           clamped per-step error rule and bisection event roots --
//           the default, bit-identical to every published bench/CSV
//   rk23pi  the second-generation engine: PI step-size control
//           (ehsim/stepper_pi), dense-output cubic event localisation
//           (ehsim/dense_output) and steady-state coasting across
//           provably quiescent spans (sim/engine try_coast)
// Both accept numeric overrides so a sweep can trade accuracy against
// wall-clock from the command line: `--integrator rk23pi:rtol=1e-05`.
// A new engine registers the same way:
// IntegratorRegistry::instance().add({kind, summary, params, apply}).
#include "sweep/registry.hpp"

namespace pns::sweep {

namespace {

/// Shared numeric overrides of every kind; absent keys leave the
/// scenario's SimConfig numerics in force.
void apply_numeric_overrides(const ParamMap& params, sim::SimConfig& cfg) {
  cfg.rel_tol = params.get_double("rtol", cfg.rel_tol);
  cfg.abs_tol = params.get_double("atol", cfg.abs_tol);
  cfg.max_ode_step_s = params.get_double("max_step", cfg.max_ode_step_s);
}

}  // namespace

void register_builtin_integrators(IntegratorRegistry& registry) {
  registry.add(IntegratorEntry{
      "rk23",
      // `pns_sweep list` derives the "(default)" marker from
      // IntegratorSpec{}.kind; don't bake it into the description.
      "adaptive RK2(3), clamped step rule + bisection events",
      {
          {"rtol", "double", "", "relative tolerance (default: scenario's)"},
          {"atol", "double", "", "absolute tolerance (default: scenario's)"},
          {"max_step", "double", "",
           "step-size ceiling in seconds (default: scenario's)"},
      },
      [](const ScenarioSpec&, const ParamMap& params, sim::SimConfig& cfg) {
        apply_numeric_overrides(params, cfg);
        cfg.step_control = ehsim::StepControl::kClamped;
        cfg.event_localization = ehsim::EventLocalization::kBisection;
        cfg.coast = false;
      },
  });

  registry.add(IntegratorEntry{
      "rk23pi",
      "RK2(3) + PI step control, dense-output events, coasting",
      {
          {"rtol", "double", "0.0001",
           "relative tolerance (~0.5 mV local error on a 5 V node)"},
          {"atol", "double", "", "absolute tolerance (default: scenario's)"},
          {"seg", "double", "0.25",
           "outer-loop stop-point spacing (s); also the metric sampling "
           "granularity"},
          {"max_step", "double", "",
           "step-size ceiling in seconds (default: the segment span)"},
          {"coast", "bool", "true",
           "steady-state coasting across quiescent spans"},
          {"coast_tol", "double", "0.0001",
           "coasting drift budget on VC (volts)"},
          {"elide", "bool", "true",
           "governor-tick elision across provable no-op ticks"},
      },
      [](const ScenarioSpec&, const ParamMap& params, sim::SimConfig& cfg) {
        // Wider stop points + a looser (but still sub-mV) tolerance: the
        // PI controller holds the step at whatever the tolerance admits,
        // and events -- not the segment grid -- bound the accuracy of
        // the control interaction, which stays exactly localised.
        cfg.max_segment_s = params.get_double("seg", 0.25);
        cfg.max_ode_step_s =
            params.get_double("max_step", cfg.max_segment_s);
        cfg.rel_tol = params.get_double("rtol", 1e-4);
        cfg.abs_tol = params.get_double("atol", cfg.abs_tol);
        cfg.step_control = ehsim::StepControl::kPi;
        cfg.event_localization = ehsim::EventLocalization::kDenseRoot;
        cfg.coast = params.get_bool("coast", true);
        cfg.coast_dv_tol_v = params.get_double("coast_tol", 1e-4);
        cfg.gov_tick_elide = params.get_bool("elide", true);
      },
  });
}

std::string resolve_integrator_alias(std::string_view kind) {
  // rk23batch and rk23simd ran rk23pi's numerics in lockstep batches and
  // wrote rk23pi's bytes. Their engine is gone; the names stay accepted
  // for one round so old command lines and journals keep working. The
  // aliases go at the next re-anchor.
  if (kind == "rk23batch" || kind == "rk23simd") return "rk23pi";
  return std::string(kind);
}

}  // namespace pns::sweep
