#include "ehsim/sources.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pns::ehsim {

PvSource::PvSource(SolarCell cell, std::function<double(double)> irradiance,
                   Mode mode, PvTableSpec table_spec)
    : cell_(std::move(cell)),
      irradiance_(std::move(irradiance)),
      mode_(mode) {
  PNS_EXPECTS(static_cast<bool>(irradiance_));
  if (mode_ == Mode::kTabulated)
    table_ = std::make_shared<const PvTable>(cell_, table_spec);
}

PvSource::PvSource(SolarCell cell, std::function<double(double)> irradiance,
                   std::shared_ptr<const PvTable> table)
    : cell_(std::move(cell)),
      irradiance_(std::move(irradiance)),
      mode_(Mode::kTabulated),
      table_(std::move(table)) {
  PNS_EXPECTS(static_cast<bool>(irradiance_));
  PNS_EXPECTS(table_ != nullptr);
}

double PvSource::current(double v, double t) const {
  ++stats_.calls;
  // A repeat of the previous (v, t) would hit the table again or the
  // (v, il) solve memo below, neither of which changes any state, so
  // answering it here is bit-identical.
  if (last_call_.valid && v == last_call_.v && t == last_call_.t) {
    ++stats_.memo_hits;
    return last_call_.i;
  }
  const double i = evaluate(v, t);
  last_call_ = {v, t, i, true};
  return i;
}

double PvSource::evaluate(double v, double t) const {
  const double g = irradiance_(t);
  if (table_ && table_->covers(v, g)) {
    ++stats_.table_hits;
    return table_->current(v, g);
  }

  const double il = cell_.photo_current(g);
  if (solve_cache_.valid && v == solve_cache_.v && il == solve_cache_.il) {
    ++stats_.memo_hits;
    return solve_cache_.i;
  }

  // Start at the photo-current (see SolarCell::current_from_photo).
  double seed = il;
  if (table_ && solve_cache_.valid &&
      std::abs(v - solve_cache_.v) < kWarmStartDeltaV &&
      std::abs(il - solve_cache_.il) < kWarmStartDeltaIl) {
    // Off-table fallback in tabulated mode: the exact-reproducibility
    // contract is already relaxed, so warm-start the Newton iteration.
    seed = solve_cache_.i;
    ++stats_.warm_starts;
  }
  std::uint32_t iters = 0;
  const double i = cell_.current_from_photo_counted(v, il, seed, &iters);
  ++stats_.newton_solves;
  stats_.newton_iterations += iters;
  solve_cache_ = {v, il, i, true};
  return i;
}

double PvSource::available_power(double t) const {
  const double g = irradiance_(t);
  if (mpp_cache_.valid && g == mpp_cache_.g) return mpp_cache_.power;
  const double p = cell_.mpp(g).power;
  mpp_cache_ = {g, p, true};
  return p;
}

ControlledSupply::ControlledSupply(std::function<double(double)> v_source,
                                   double series_resistance,
                                   bool diode_isolated)
    : v_source_(std::move(v_source)),
      series_resistance_(series_resistance),
      diode_isolated_(diode_isolated) {
  PNS_EXPECTS(static_cast<bool>(v_source_));
  PNS_EXPECTS(series_resistance_ > 0.0);
}

double ControlledSupply::current(double v, double t) const {
  const double i = (v_source_(t) - v) / series_resistance_;
  if (diode_isolated_) return std::max(0.0, i);
  return i;
}

double ControlledSupply::available_power(double t) const {
  // Max power transfer at v = Vs/2: P = Vs^2 / (4 R).
  const double vs = v_source_(t);
  return vs * vs / (4.0 * series_resistance_);
}

}  // namespace pns::ehsim
