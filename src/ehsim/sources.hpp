// Harvester / supply sources feeding the storage node.
//
// Everything upstream of the capacitor implements CurrentSource: given the
// node voltage and the time, return the current pushed into the node. Three
// concrete sources cover the paper's experiments:
//   * PvSource            -- solar array + irradiance profile (Figs. 12-14)
//   * ControlledSupply    -- bench supply with series resistance (Fig. 11)
//   * ConstantCurrent     -- analytic baseline for tests
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "ehsim/pv_table.hpp"
#include "ehsim/solar_cell.hpp"

namespace pns::ehsim {

/// Accounting of the PV implicit solves behind a PvSource. Pure
/// observability: counting changes no arithmetic, and none of these
/// numbers reach the default CSV/JSON emitters -- they surface through
/// the repository benchmark's per-layer split (perfbench, `ehsim.pv.*`).
struct PvSolveStats {
  std::uint64_t calls = 0;         ///< current() evaluations
  std::uint64_t table_hits = 0;    ///< answered by the bilinear table
  std::uint64_t memo_hits = 0;     ///< repeats of the previous (v, t) or
                                   ///< of the last solve's (v, il)
  std::uint64_t newton_solves = 0; ///< damped-Newton solves executed
  std::uint64_t newton_iterations = 0;  ///< iterations across those solves
  std::uint64_t warm_starts = 0;   ///< solves seeded from a nearby point

  PvSolveStats& operator+=(const PvSolveStats& o) {
    calls += o.calls;
    table_hits += o.table_hits;
    memo_hits += o.memo_hits;
    newton_solves += o.newton_solves;
    newton_iterations += o.newton_iterations;
    warm_starts += o.warm_starts;
    return *this;
  }
};

/// A device that injects current into the storage node.
class CurrentSource {
 public:
  virtual ~CurrentSource() = default;

  /// Current (A) into the node at node voltage `v` and time `t`.
  virtual double current(double v, double t) const = 0;

  /// Estimated maximum extractable power (W) at time `t`, maximised over
  /// the node voltage. Used by the power-neutrality analysis (Fig. 14);
  /// sources with no meaningful optimum may return 0.
  virtual double available_power(double /*t*/) const { return 0.0; }

  /// Latest time T >= t such that the source's *time* dependence is
  /// provably constant over [t, T] (output may still vary with the node
  /// voltage). Sources that cannot vouch return `t`; truly
  /// time-invariant ones return +infinity. The steady-state coasting
  /// fast path (sim/engine.hpp) only jumps across vouched-for spans, so
  /// a conservative answer costs speed, never correctness.
  virtual double constant_until(double t) const { return t; }
};

/// PV array driven by an irradiance profile G(t) in W/m^2.
///
/// Two evaluation modes:
///   * Mode::kExact (default) -- every current() is an exact Newton solve
///     of eq. 4 (SolarCell::solve) to its 1e-12 relative contract, so it
///     agrees with SolarCell::current to solver tolerance. Runs are
///     deterministic: the same call sequence gives the same bits.
///   * Mode::kTabulated -- current() answers from a precomputed bilinear
///     I(V, G) table (PvTable) whose worst-case error is measured at
///     construction; outside the tabulated rectangle it falls back to the
///     same exact solve.
///
/// Each solve is seeded from the last one: when the operating point moved
/// by less than kWarmStartDeltaV / kWarmStartDeltaIl, the seed is the
/// second-order Taylor prediction of the implicit I(V, Il) from the last
/// root,
///   d1 = dI/dV*dV + dI/dIl*dIl,  seed = i + d1 + half_d2i*(dV + Rs*d1)^2
/// (the curvature acts along the diode voltage V + Rs*I), which lands
/// inside SolarCell::solve's quadratic-convergence stop, so a typical
/// solve is one exp; otherwise the seed is the photo-current. A memo of
/// the last converged solve short-circuits exact repeats of (v, il),
/// which the co-simulation loop produces at segment boundaries (FSAL
/// restarts, metric sampling).
///
/// History: because the seed comes from the previous solve, a result
/// depends on the source's call history at the ~1e-13 A level (the
/// solver's stop), not only on (v, t). Two fresh sources fed the same
/// calls agree bit for bit; the sweep path builds one source per
/// scenario, so its bytes do not depend on thread count or shard.
///
/// The caches make const calls stateful: a PvSource must not be shared by
/// concurrently running simulations. Every engine/sweep worker constructs
/// its own source, so this only matters for hand-rolled callers.
class PvSource : public CurrentSource {
 public:
  enum class Mode { kExact, kTabulated };

  /// Operating-point deltas below which a solve is seeded from the last
  /// converged one (the slope-predicted seed) instead of the photo-current.
  static constexpr double kWarmStartDeltaV = 0.25;   // V
  static constexpr double kWarmStartDeltaIl = 0.25;  // A

  /// `irradiance` is sampled on demand; it must be callable for any t >= 0
  /// and a pure function of t: current() answers a repeat of its previous
  /// exact (v, t) from a one-entry memo without sampling it again.
  /// `table_spec` is only consulted in Mode::kTabulated.
  PvSource(SolarCell cell, std::function<double(double)> irradiance,
           Mode mode = Mode::kExact, PvTableSpec table_spec = {});

  /// Tabulated mode with an externally built table (must match `cell`).
  /// PvTable is immutable, so one table can be shared across the many
  /// sources of a sweep instead of each scenario re-running the ~25k
  /// Newton solves of a table build.
  PvSource(SolarCell cell, std::function<double(double)> irradiance,
           std::shared_ptr<const PvTable> table);

  double current(double v, double t) const override;

  /// Lifetime solve accounting of this source (see PvSolveStats).
  const PvSolveStats& solve_stats() const { return stats_; }

  /// MPP power of the array under the irradiance at time t (memoised on
  /// the irradiance value; exact in both modes).
  double available_power(double t) const override;

  /// Declares how long the irradiance profile stays flat from a given
  /// time (e.g. PiecewiseLinear::flat_until over the backing trace).
  /// Unset, constant_until conservatively reports "unknown" (t).
  void set_irradiance_hold(std::function<double(double)> hold) {
    irradiance_hold_ = std::move(hold);
  }

  /// The irradiance hold window when declared; `t` otherwise.
  double constant_until(double t) const override {
    return irradiance_hold_ ? irradiance_hold_(t) : t;
  }

  Mode mode() const { return mode_; }

  /// The interpolation table; nullptr in Mode::kExact.
  const PvTable* table() const { return table_.get(); }

  const SolarCell& cell() const { return cell_; }
  double irradiance_at(double t) const { return irradiance_(t); }

 private:
  /// current() without the last-call memo.
  double evaluate(double v, double t) const;

  SolarCell cell_;
  std::function<double(double)> irradiance_;
  std::function<double(double)> irradiance_hold_;  ///< optional flat window
  Mode mode_;
  std::shared_ptr<const PvTable> table_;

  // Last converged Newton solve with its derivatives (memo + predicted
  // seed).
  struct SolveCache {
    double v = 0.0, il = 0.0, i = 0.0, di_dv = 0.0, di_dil = 0.0;
    double half_d2i = 0.0;
    bool valid = false;
  };
  mutable SolveCache solve_cache_;

  // Previous current() call, answered again on an exact (v, t) repeat.
  struct LastCall {
    double v = 0.0, t = 0.0, i = 0.0;
    bool valid = false;
  };
  mutable LastCall last_call_;

  // Last MPP evaluation, keyed on the exact irradiance value.
  struct MppCache {
    double g = 0.0, power = 0.0;
    bool valid = false;
  };
  mutable MppCache mpp_cache_;

  mutable PvSolveStats stats_;
};

/// Ideal programmable supply behind a series resistor: I = (Vs(t) - v)/R.
/// When `diode_isolated` is set, the source can only push current (a
/// blocking diode), never absorb it.
class ControlledSupply : public CurrentSource {
 public:
  ControlledSupply(std::function<double(double)> v_source,
                   double series_resistance, bool diode_isolated = false);

  double current(double v, double t) const override;
  double available_power(double t) const override;

  double source_voltage_at(double t) const { return v_source_(t); }

 private:
  std::function<double(double)> v_source_;
  double series_resistance_;
  bool diode_isolated_;
};

/// Fixed current injection (test baseline).
class ConstantCurrentSource : public CurrentSource {
 public:
  explicit ConstantCurrentSource(double amps) : amps_(amps) {}
  double current(double /*v*/, double /*t*/) const override { return amps_; }
  double constant_until(double /*t*/) const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  double amps_;
};

}  // namespace pns::ehsim
