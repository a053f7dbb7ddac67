// Single-diode photovoltaic model (paper eq. 4) with Newton solution.
//
//   I = Il - I0*(exp((V + Rs*I)/(N*VT)) - 1) - (V + Rs*I)/Rp
//
// The implicit equation is solved for terminal current I by damped
// Newton-Raphson (the residual is strictly monotone in I so convergence is
// global). N*VT and the series cell count are lumped into one thermal
// voltage parameter `vt_eff`. Photo-current scales linearly with
// irradiance: Il(G) = il_ref * G / g_ref.
//
// Calibration: `SolarCell::calibrate` fits (i0, vt_eff, il_ref) so the
// model reproduces a measured (Voc, Isc, Vmpp) triple -- we target the IV
// curve of the paper's 1340 cm^2 monocrystalline array (Fig. 13):
// Isc ~ 1.15 A, Voc ~ 6.8 V, MPP ~ 5.4 W at 5.3 V.
#pragma once

#include <cstdint>

#include "util/interp.hpp"

namespace pns::ehsim {

/// Electrical parameters of the lumped single-diode model.
struct SolarCellParams {
  double i0;      ///< diode saturation current (A)
  double vt_eff;  ///< lumped N * n_series * VT (V)
  double rs;      ///< series resistance (ohm)
  double rp;      ///< parallel (shunt) resistance (ohm)
  double il_ref;  ///< photo-current at reference irradiance (A)
  double g_ref;   ///< reference irradiance (W/m^2), typically 1000
};

/// Maximum-power-point summary for a given irradiance.
struct MppPoint {
  double voltage;  ///< V at maximum power
  double current;  ///< A at maximum power
  double power;    ///< W at maximum power
};

/// One converged solve of eq. 4 (SolarCell::solve).
struct PvSolve {
  double i;             ///< terminal current (A)
  std::uint32_t iters;  ///< Newton iterations executed
  double di_dv;         ///< dI/dV at the root (A/V, negative)
  double di_dil;        ///< dI/dIl at the root (in (0, 1])
  double half_d2i;      ///< half of d2I/dVd2 along the diode voltage
                        ///< Vd = V + Rs*I (A/V^2, negative)
};

/// Lumped PV cell/array. Thread-compatible: const methods are re-entrant.
class SolarCell {
 public:
  explicit SolarCell(SolarCellParams params);

  const SolarCellParams& params() const { return params_; }

  /// Photo-current for irradiance G (W/m^2); clamped at 0 for G <= 0.
  double photo_current(double irradiance) const;

  /// Terminal current at terminal voltage `v` given photo-current `il`.
  /// Negative values mean the cell is absorbing (v beyond open circuit).
  /// Cold start: solve(v, il, il).i.
  double current_from_photo(double v, double il) const;

  /// The one Newton solve of eq. 4 for the terminal current at (v, il),
  /// started from `i_seed`. Damped Newton stops when its step falls below
  /// 1e-12 relative, or -- after an undamped step -- when the step the
  /// next iteration would take, |F''/(2F')|*step^2 from the quadratic
  /// convergence of Newton, is below 1e-13 relative (a 10x margin under
  /// the 1e-12 contract). Either way the root agrees with every other
  /// seed's to 1e-12 relative (~1e-13 A on the paper's array); the bits
  /// depend on the seed. On the paper's array a seed within ~1e-6 A of
  /// the root finishes in one iteration, i.e. one exp. The bound is
  /// skipped after a damped step and after a step that climbs the
  /// exponential by more than one vt (F'' is taken at the iterate, so it
  /// would under-predict there). The result also carries the root's
  /// first and second derivatives, taken from the last iteration's exp
  /// and dF/dI (no extra exp), so a caller can predict the next root of
  /// a slowly moving operating point to second order.
  PvSolve solve(double v, double il, double i_seed) const;

  /// Terminal current at voltage `v` under irradiance `g`.
  double current(double v, double irradiance) const;

  /// Terminal power P = V*I at voltage `v` under irradiance `g`.
  double power(double v, double irradiance) const;

  /// Short-circuit current under irradiance `g`.
  double short_circuit_current(double irradiance) const;

  /// Open-circuit voltage under irradiance `g` (0 when dark).
  double open_circuit_voltage(double irradiance) const;

  /// Maximum power point under irradiance `g` (golden-section search).
  MppPoint mpp(double irradiance) const;

  /// Samples the IV curve at `points` evenly spaced voltages in
  /// [0, Voc(g)]; returns V -> I as a piecewise-linear function.
  pns::PiecewiseLinear iv_curve(double irradiance,
                                std::size_t points = 64) const;

  /// Returns an electrically equivalent array scaled in area by `factor`
  /// (currents scale up, resistances scale down).
  SolarCell scaled_area(double factor) const;

  /// Fits (i0, vt_eff, il_ref) so that at `g_ref` the model achieves the
  /// given open-circuit voltage, short-circuit current and MPP voltage,
  /// with the supplied parasitics. Throws std::invalid_argument when the
  /// targets are inconsistent (e.g. vmpp >= voc).
  static SolarCell calibrate(double voc, double isc, double vmpp,
                             double rs = 0.3, double rp = 200.0,
                             double g_ref = 1000.0);

 private:
  SolarCellParams params_;
};

}  // namespace pns::ehsim
