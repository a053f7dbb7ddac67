#include "ehsim/pv_table.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pns::ehsim {

PvTable::PvTable(const SolarCell& cell, PvTableSpec spec) {
  PNS_EXPECTS(spec.nv >= 2);
  PNS_EXPECTS(spec.ng >= 2);
  PNS_EXPECTS(spec.g_max > 0.0);
  g_max_ = spec.g_max;
  v_max_ = spec.v_max > 0.0
               ? spec.v_max
               : cell.open_circuit_voltage(g_max_) * 1.02;
  PNS_EXPECTS(v_max_ > 0.0);
  nv_ = spec.nv;
  ng_ = spec.ng;
  dv_ = v_max_ / static_cast<double>(nv_ - 1);
  dg_ = g_max_ / static_cast<double>(ng_ - 1);

  i_.resize(nv_ * ng_);
  for (std::size_t gi = 0; gi < ng_; ++gi) {
    const double g = static_cast<double>(gi) * dg_;
    const double il = cell.photo_current(g);
    // Walking the voltage axis keeps consecutive roots close, so seeding
    // each solve with the previous root makes the table build cheap.
    double seed = il;
    for (std::size_t vi = 0; vi < nv_; ++vi) {
      const double v = static_cast<double>(vi) * dv_;
      const double i = cell.solve(v, il, seed).i;
      i_[gi * nv_ + vi] = i;
      seed = i;
    }
  }

  // Measure the interpolation error where bilinear error peaks: the cell
  // midpoints. This is the bound callers get from max_abs_error_a().
  for (std::size_t gi = 0; gi + 1 < ng_; ++gi) {
    const double g = (static_cast<double>(gi) + 0.5) * dg_;
    const double il = cell.photo_current(g);
    double seed = il;
    for (std::size_t vi = 0; vi + 1 < nv_; ++vi) {
      const double v = (static_cast<double>(vi) + 0.5) * dv_;
      const double exact = cell.solve(v, il, seed).i;
      seed = exact;
      max_abs_error_ =
          std::max(max_abs_error_, std::abs(current(v, g) - exact));
    }
  }
}

double PvTable::current(double v, double g) const {
  PNS_EXPECTS(covers(v, g));
  const double fv = std::min(v / dv_, static_cast<double>(nv_ - 1));
  const double fg = std::min(g / dg_, static_cast<double>(ng_ - 1));
  const std::size_t vi =
      std::min(static_cast<std::size_t>(fv), nv_ - 2);
  const std::size_t gi =
      std::min(static_cast<std::size_t>(fg), ng_ - 2);
  const double tv = fv - static_cast<double>(vi);
  const double tg = fg - static_cast<double>(gi);
  const double* row0 = &i_[gi * nv_ + vi];
  const double* row1 = row0 + nv_;
  const double i0 = row0[0] + tv * (row0[1] - row0[0]);
  const double i1 = row1[0] + tv * (row1[1] - row1[0]);
  return i0 + tg * (i1 - i0);
}

}  // namespace pns::ehsim
