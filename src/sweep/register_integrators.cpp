// Built-in integrator kinds (provider domain: ehsim/ + sim/).
//
// Two integration engines drive the storage-node ODE out of the box:
//   rk23pi  the default engine: PI step-size control (ehsim/stepper_pi),
//           dense-output cubic event localisation (ehsim/dense_output),
//           steady-state coasting across provably quiescent spans
//           (sim/engine try_coast) and governor-tick elision. Its
//           parameter defaults are sim::SimConfig{}'s numerics, so a
//           sweep row and a hand-built sim::SimEngine run of the same
//           scenario compute identically.
//   rk23    the original adaptive Bogacki-Shampine stepper with the
//           clamped per-step error rule and bisection event roots, at its
//           own legacy numerics -- the reference numerics the paper
//           suite's error budget measures rk23pi against, and CI's
//           deterministic regression leg.
// Both accept numeric overrides so a sweep can trade accuracy against
// wall-clock from the command line: `--integrator rk23pi:rtol=1e-05`.
// A new engine registers the same way:
// IntegratorRegistry::instance().add({kind, summary, params, apply}).
#include "sweep/registry.hpp"

#include "util/json.hpp"

namespace pns::sweep {

namespace {

// The legacy rk23 engine's numerics (the reference settings).
constexpr double kRk23SegmentS = 0.05;
constexpr double kRk23MaxStepS = 0.01;
constexpr double kRk23RelTol = 1e-6;

}  // namespace

void register_builtin_integrators(IntegratorRegistry& registry) {
  const sim::SimConfig defaults;

  registry.add(IntegratorEntry{
      "rk23",
      "legacy adaptive RK2(3), clamped step rule + bisection events",
      {
          {"rtol", "double", shortest_double(kRk23RelTol),
           "relative tolerance"},
          {"atol", "double", "", "absolute tolerance (default: scenario's)"},
          {"max_step", "double", shortest_double(kRk23MaxStepS),
           "step-size ceiling in seconds"},
      },
      [](const ScenarioSpec&, const ParamMap& params, sim::SimConfig& cfg) {
        cfg.max_segment_s = kRk23SegmentS;
        cfg.max_ode_step_s = params.get_double("max_step", kRk23MaxStepS);
        cfg.rel_tol = params.get_double("rtol", kRk23RelTol);
        cfg.abs_tol = params.get_double("atol", cfg.abs_tol);
        cfg.step_control = ehsim::StepControl::kClamped;
        cfg.event_localization = ehsim::EventLocalization::kBisection;
        cfg.coast = false;
        cfg.gov_tick_elide = false;
      },
  });

  registry.add(IntegratorEntry{
      "rk23pi",
      // `pns_sweep list` derives the "(default)" marker from
      // IntegratorSpec{}.kind; don't bake it into the description.
      "RK2(3) + PI step control, dense-output events, coasting",
      {
          {"rtol", "double", shortest_double(defaults.rel_tol),
           "relative tolerance (~0.5 mV local error on a 5 V node)"},
          {"atol", "double", "", "absolute tolerance (default: scenario's)"},
          {"seg", "double", shortest_double(defaults.max_segment_s),
           "outer-loop stop-point spacing (s); also the metric sampling "
           "granularity"},
          {"max_step", "double", "",
           "step-size ceiling in seconds (default: the segment span)"},
      },
      [defaults](const ScenarioSpec&, const ParamMap& params,
                 sim::SimConfig& cfg) {
        // Wide stop points + a sub-mV tolerance: the PI controller holds
        // the step at whatever the tolerance admits, and events -- not
        // the segment grid -- bound the accuracy of the control
        // interaction, which stays exactly localised.
        cfg.max_segment_s = params.get_double("seg", defaults.max_segment_s);
        cfg.max_ode_step_s =
            params.get_double("max_step", cfg.max_segment_s);
        cfg.rel_tol = params.get_double("rtol", defaults.rel_tol);
        cfg.abs_tol = params.get_double("atol", cfg.abs_tol);
        cfg.step_control = ehsim::StepControl::kPi;
        cfg.event_localization = ehsim::EventLocalization::kDenseRoot;
        cfg.coast = defaults.coast;
        cfg.gov_tick_elide = defaults.gov_tick_elide;
      },
  });
}

}  // namespace pns::sweep
