#include "ehsim/rk23.hpp"

#include <algorithm>
#include <cmath>

#include "ehsim/dense_output.hpp"
#include "util/contracts.hpp"

namespace pns::ehsim {

Rk23Integrator::Rk23Integrator(const OdeSystem& system, Rk23Options options)
    : system_(&system), opt_(options) {
  PNS_EXPECTS(opt_.rel_tol > 0.0);
  PNS_EXPECTS(opt_.abs_tol > 0.0);
  PNS_EXPECTS(opt_.max_step > 0.0);
}

void Rk23Integrator::reset(double t0, double v0) {
  pi_.reset();
  t_ = t0;
  v_ = v0;
  have_f0_ = false;
  h_ = opt_.initial_step;
  step_t0_ = step_t1_ = t0;
  step_v0_ = step_v1_ = v0;
}

double Rk23Integrator::initial_step_guess(double t_end) const {
  // Tolerance-scaled size of state and derivative (SciPy-style h0): the
  // first step should change the scaled state by about 1 %. Starting small
  // also avoids landing on isolated zeros of the embedded error estimator
  // (for y' = lambda*y the BS23 estimator vanishes at h*lambda = -1).
  const double scale = opt_.abs_tol + opt_.rel_tol * std::abs(v_);
  const double d0 = std::abs(v_) / scale;
  const double d1 = std::abs(f0_) / scale;
  double h = (d0 >= 1e-5 && d1 >= 1e-5) ? 0.01 * d0 / d1 : 1e-6;
  h = std::clamp(h, opt_.min_step * 10.0, opt_.max_step);
  return std::min(h, std::max(t_end - t_, opt_.min_step));
}

IntegrationResult Rk23Integrator::advance(double t_end,
                                          std::span<const EventSpec> events) {
  PNS_EXPECTS(events.size() <= kMaxEvents);
  IntegrationResult result;
  result.t = t_;
  if (t_end <= t_) return result;

  // Threshold levels in locals: the loop calls the system virtually, after
  // which anything behind the span would have to be re-read.
  const std::size_t n_events = events.size();
  double level[kMaxEvents];
  EventDirection direction[kMaxEvents];
  for (std::size_t e = 0; e < n_events; ++e) {
    level[e] = events[e].level;
    direction[e] = events[e].direction;
  }

  if (!have_f0_) {
    f0_ = system_->derivative(t_, v_);
    have_f0_ = true;
  }
  if (h_ <= 0.0) h_ = initial_step_guess(t_end);

  std::size_t steps_this_call = 0;
  while (t_ < t_end) {
    PNS_ENSURES(++steps_this_call <= opt_.max_steps_per_call);

    const double h_limit = std::min(h_, opt_.max_step);
    double h = std::min(h_limit, t_end - t_);
    // True when this step is shortened only to land on t_end (a segment
    // boundary), not because the controller asked for a small step.
    const bool end_capped = h < h_limit;
    h = std::max(h, opt_.min_step);

    // Bogacki-Shampine tableau. k1 is the FSAL derivative from the
    // previous step (f0_).
    const double y = v_;
    const double k1 = f0_;
    const double k2 = system_->derivative(t_ + 0.5 * h, y + h * 0.5 * k1);
    const double k3 = system_->derivative(t_ + 0.75 * h, y + h * 0.75 * k2);
    const double ynew =
        y + h * (2.0 / 9.0 * k1 + 1.0 / 3.0 * k2 + 4.0 / 9.0 * k3);
    const double k4 = system_->derivative(t_ + h, ynew);

    // Embedded 2nd-order error estimate, scaled by the tolerance.
    const double z = y + h * (7.0 / 24.0 * k1 + 0.25 * k2 + 1.0 / 3.0 * k3 +
                              0.125 * k4);
    const double scale =
        opt_.abs_tol + opt_.rel_tol * std::max(std::abs(y), std::abs(ynew));
    const double e = (ynew - z) / scale;
    const double err = std::sqrt(e * e);

    if (err > 1.0 && h > opt_.min_step) {
      ++total_rejected_;
      ++result.rejected_steps;
      h_ = h * (opt_.step_control == StepControl::kPi
                    ? pi_.on_rejected(err)
                    : std::max(0.2, 0.9 * std::pow(err, -1.0 / 3.0)));
      continue;
    }

    // Accept the step.
    step_t0_ = t_;
    step_t1_ = t_ + h;
    step_v0_ = y;
    step_v1_ = ynew;
    step_f0_ = k1;
    step_f1_ = k4;

    t_ = step_t1_;
    v_ = ynew;
    f0_ = k4;  // FSAL
    ++total_steps_;
    ++result.steps_taken;

    // Grow the step for the next iteration.
    if (opt_.step_control == StepControl::kPi) {
      // A step truncated to land exactly on t_end says nothing about
      // what the error tolerates: never let it shrink the learned step
      // size, and keep its artificially tiny error out of the PI
      // history (it would damp the next full step's growth). The
      // co-simulation loop ends a segment every few dozen ms, so paying
      // a re-grow at each boundary would dominate.
      const double grown =
          h * pi_.on_accepted(err, /*record_history=*/!end_capped);
      h_ = end_capped ? std::max(h_limit, grown) : grown;
    } else {
      const double growth =
          err > 1e-12 ? 0.9 * std::pow(err, -1.0 / 3.0) : 5.0;
      h_ = h * std::clamp(growth, 0.2, 5.0);
    }

    // --- event detection over the accepted step ------------------------
    double earliest_t = step_t1_;
    std::size_t earliest_event = 0;
    bool earliest_dense = false;
    bool fired = false;
    // Dense-output cubic, built on demand once per step (every event in
    // kDenseRoot mode localises against it).
    HermiteCubic cubic;
    bool have_cubic = false;
    for (std::size_t e = 0; e < n_events; ++e) {
      const double g_prev = y - level[e];
      if (!event_direction_matches(direction[e], g_prev, ynew - level[e]))
        continue;
      double root_t = step_t1_;
      bool localised = false;
      if (opt_.event_localization == EventLocalization::kDenseRoot &&
          h > 0.0) {
        if (!have_cubic) {
          cubic = HermiteCubic::from_step(h, y, ynew, k1, k4);
          have_cubic = true;
        }
        const CrossingResult cr = earliest_crossing(
            cubic, level[e], direction[e], opt_.event_tol / h);
        if (cr.found) {
          root_t = step_t0_ + cr.s * h;
          localised = true;
        }
      }
      if (!localised) {
        // Bisect for the root inside [step_t0_, step_t1_].
        double lo = step_t0_, hi = step_t1_;
        double g_lo = g_prev;
        for (int it = 0; it < 64 && (hi - lo) > opt_.event_tol; ++it) {
          const double mid = 0.5 * (lo + hi);
          const double g_mid = interpolate(mid) - level[e];
          if (event_direction_matches(direction[e], g_lo, g_mid)) {
            hi = mid;
          } else {
            lo = mid;
            g_lo = g_mid;
          }
        }
        root_t = hi;
      }
      if (!fired || root_t < earliest_t) {
        earliest_t = root_t;
        earliest_event = e;
        earliest_dense = localised;
        fired = true;
      }
    }

    if (fired) {
      // Rewind the trajectory to the event time.
      v_ = interpolate(earliest_t);
      t_ = earliest_t;
      have_f0_ = false;  // state changed off the step grid
      // A dense-output root sits on the crossed side of the *cubic*, but
      // mapping s -> t -> s through interpolate() can land the committed
      // state an ulp short of the threshold. Left there, the next advance()
      // re-arms the same event on the un-crossed baseline and fires it at
      // the same instant forever (the crossing now sits at s = 0, where
      // t0 + s*h rounds back to t0 and the trajectory never advances).
      // Snap the state onto the threshold -- within the event tolerance
      // by construction, and a no-op whenever the round-trip already
      // landed on the crossed side. Bisection roots are evaluated through
      // interpolate() itself and cannot undershoot, so the original rk23
      // path is untouched bit for bit.
      if (earliest_dense) {
        const double lv = level[earliest_event];
        const EventDirection dir = direction[earliest_event];
        const double g = v_ - lv;
        const bool undershot =
            (dir == EventDirection::kRising && g < 0.0) ||
            (dir == EventDirection::kFalling && g > 0.0) ||
            (dir == EventDirection::kAny && g != 0.0 &&
             (g < 0.0) == (y - lv < 0.0));
        if (undershot) v_ = lv;
      }
      result.t = t_;
      result.event_fired = true;
      result.event_tag = events[earliest_event].tag;
      return result;
    }
  }

  result.t = t_;
  return result;
}

double Rk23Integrator::interpolate(double t) const {
  const double h = step_t1_ - step_t0_;
  if (h <= 0.0) return step_v1_;
  const double s = std::clamp((t - step_t0_) / h, 0.0, 1.0);
  const double s2 = s * s, s3 = s2 * s;
  const double h00 = 2 * s3 - 3 * s2 + 1;
  const double h10 = s3 - 2 * s2 + s;
  const double h01 = -2 * s3 + 3 * s2;
  const double h11 = s3 - s2;
  return h00 * step_v0_ + h * h10 * step_f0_ + h01 * step_v1_ +
         h * h11 * step_f1_;
}

}  // namespace pns::ehsim
