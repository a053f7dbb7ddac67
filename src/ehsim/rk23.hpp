// Adaptive Bogacki-Shampine RK2(3) integrator for the one-state storage
// node, with threshold-event localisation.
//
// This is the method behind Matlab's ODE23, which the paper uses for its
// Simulink parameter-selection study (Section III). The embedded 2nd-order
// solution provides the error estimate; the 3rd-order solution propagates.
// FSAL (first-same-as-last) gives 3 derivative evaluations per accepted
// step. Dense output is cubic Hermite over the accepted step, which is
// enough to localise threshold/brownout events to ~1 us. The state is a
// single double (VC), so the integrator keeps no work arrays.
#pragma once

#include <cstddef>
#include <span>

#include "ehsim/ode.hpp"
#include "ehsim/stepper_pi.hpp"

namespace pns::ehsim {

/// Step-size control law of the adaptive integrator.
enum class StepControl {
  /// The original per-step rule: h * clamp(0.9 * err^(-1/3), 0.2, 5).
  /// Reproduces the pre-PI integrator bit for bit.
  kClamped,
  /// Proportional-integral controller (ehsim/stepper_pi.hpp): damps the
  /// grow/reject limit cycle, so quiescent stretches run at the largest
  /// tolerable step.
  kPi,
};

/// How threshold-event roots are localised inside an accepted step.
enum class EventLocalization {
  /// Bisection on the Hermite dense output (the original scheme).
  kBisection,
  /// Direct root solve on the dense-output cubic (ehsim/dense_output.hpp),
  /// falling back to bisection when the cubic finds no root.
  kDenseRoot,
};

/// Tolerances and step-size limits for Rk23Integrator.
struct Rk23Options {
  double rel_tol = 1e-6;
  double abs_tol = 1e-9;
  double max_step = 1e9;      ///< upper bound on step size (seconds)
  double min_step = 1e-12;    ///< below this the step is accepted anyway
  double initial_step = 0.0;  ///< 0 = choose automatically
  double event_tol = 1e-9;    ///< event time localisation tolerance (s)
  std::size_t max_steps_per_call = 50'000'000;  ///< runaway guard
  StepControl step_control = StepControl::kClamped;
  EventLocalization event_localization = EventLocalization::kBisection;
};

/// Single-trajectory adaptive integrator of v' = f(t, v). Typical use:
///
///   Rk23Integrator ig(system, opts);
///   ig.reset(0.0, v0);
///   auto res = ig.advance(t_end, events);
///   if (res.event_fired) { ...handle, maybe mutate system..., }
///   res = ig.advance(t_end, events);   // continues from the event time
///
/// After an event fires the integrator stops exactly at the event time; the
/// caller may change the system's parameters (load power, thresholds) and
/// call advance() again -- the integrator restarts cleanly (no stale FSAL).
class Rk23Integrator {
 public:
  /// Most events one advance() call watches (the engine's brownout + LOW +
  /// HIGH trip set).
  static constexpr std::size_t kMaxEvents = 3;

  Rk23Integrator(const OdeSystem& system, Rk23Options options = {});

  /// Sets the current time and state, discarding integration history.
  void reset(double t0, double v0);

  double time() const { return t_; }
  double state() const { return v_; }

  /// Integrates forward until `t_end` or until the first event root,
  /// whichever comes first. Events are tested on every accepted step;
  /// at most kMaxEvents of them.
  IntegrationResult advance(double t_end,
                            std::span<const EventSpec> events = {});

  const Rk23Options& options() const { return opt_; }

  /// Invalidates cached derivatives; call after mutating the OdeSystem's
  /// parameters mid-run (the FSAL derivative would otherwise be stale).
  /// Also forgets the PI controller's error history -- errors measured
  /// under the old right-hand side say nothing about the new one.
  void notify_discontinuity() {
    have_f0_ = false;
    pi_.reset();
  }

  /// Statistics for the whole lifetime of the integrator.
  std::size_t total_steps() const { return total_steps_; }
  std::size_t total_rejected() const { return total_rejected_; }

 private:
  /// Cubic Hermite interpolation of v inside the last accepted step.
  double interpolate(double t) const;

  double initial_step_guess(double t_end) const;

  const OdeSystem* system_;
  Rk23Options opt_;

  double t_ = 0.0;
  double v_ = 0.0;
  double f0_ = 0.0;  // derivative at (t_, v_) -- FSAL cache
  bool have_f0_ = false;

  // Last accepted step (for dense output / event localisation).
  double step_t0_ = 0.0, step_t1_ = 0.0;
  double step_v0_ = 0.0, step_v1_ = 0.0, step_f0_ = 0.0, step_f1_ = 0.0;

  double h_ = 0.0;  // current step size
  PiStepController pi_;  // used only in StepControl::kPi
  std::size_t total_steps_ = 0;
  std::size_t total_rejected_ = 0;
};

}  // namespace pns::ehsim
