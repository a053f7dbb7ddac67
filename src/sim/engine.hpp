// Event-driven co-simulation engine.
//
// Couples four models and advances them together:
//   * the storage-node circuit (ehsim)  -- adaptive RK23 on d(VC)/dt
//   * the SoC runtime (soc)             -- OPP, transitions, power state
//   * the control layer                 -- power-neutral controller via
//     comparator interrupts, OR a Linux-style governor via periodic
//     sampling, OR nothing (static OPP)
//   * the workload                      -- utilisation + progress
//
// Threshold crossings, brownout, and recovery are localised as ODE events
// (the load power is discontinuous there); transition-step completions,
// governor ticks and boot completion are timed boundaries. Between
// consecutive stop points the load power is constant, which keeps the
// integrator's assumptions honest.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "ehsim/circuit.hpp"
#include "ehsim/rk23.hpp"
#include "governors/governor.hpp"
#include "hw/monitor.hpp"
#include "sim/metrics.hpp"
#include "sim/recorder.hpp"
#include "soc/soc_state.hpp"
#include "soc/workload.hpp"
#include "util/histogram.hpp"

namespace pns::sim {

/// Run configuration shared by all control modes.
struct SimConfig {
  double t_start = 0.0;
  double t_end = 60.0;

  // Storage node (the paper's validation system uses 47 mF).
  double capacitance_f = 47e-3;
  double cap_esr_ohm = 0.0;        ///< modelled inside the node lump
  double cap_leak_ohm = 50.0e3;    ///< supercap self-discharge
  double vc0 = 5.3;                ///< initial node voltage (V)

  // Voltage-stability band (Fig. 12): centre and half-width fraction.
  double v_target = 5.3;
  double band_fraction = 0.05;

  // Numerics: the `rk23pi` engine (PI step control, dense-output event
  // roots, coasting, tick elision) at rtol 1e-4 -- still 10x tighter than
  // the Matlab ODE23 default (RelTol 1e-3) the paper's Section III study
  // ran on. This is the one place the default numerics live: the sweep
  // registry's `rk23pi` kind reads its parameter defaults from here, and
  // `rk23` replaces them with the legacy engine's reference settings
  // (see docs/performance.md).
  double max_segment_s = 0.25;   ///< outer-loop stop-point spacing
  double max_ode_step_s = 0.25;  ///< RK23 step ceiling
  double rel_tol = 1e-4;         ///< ~0.5 mV local error on a 5 V node
  double abs_tol = 1e-8;

  ehsim::StepControl step_control = ehsim::StepControl::kPi;
  ehsim::EventLocalization event_localization =
      ehsim::EventLocalization::kDenseRoot;
  /// Steady-state coasting: when the circuit is provably time-invariant
  /// (source, load and workload all vouch via constant_until) and VC can
  /// neither drift by more than 0.1 mV nor reach a watched threshold over
  /// the span, the engine advances to the next breakpoint in one analytic
  /// jump instead of stepping through it.
  bool coast = true;
  /// Governor-tick elision: before each segment, ask the governor (via
  /// Governor::hold_until) and the workload (constant_until) for a window
  /// over which every sampling tick is provably a no-op -- the measured
  /// utilisation cannot change and decide() would keep the current OPP
  /// and leave governor state untouched -- and stop only at the first
  /// possibly-live tick instead of every tick. Ticks while the SoC is off
  /// are pure reschedules and are always elidable. The skipped ticks stay
  /// on the sampling grid (catch-up re-aligns), so runs with and without
  /// elision fire the same *live* ticks at the same times; elision is an
  /// execution strategy, not a model change. The legacy `rk23` kind turns
  /// it off (its outputs are pinned bit-identical to the published CSVs).
  bool gov_tick_elide = true;

  // Recording.
  bool record_series = true;
  double record_interval_s = 0.25;

  // Brownout / recovery semantics.
  bool enable_reboot = true;
  double reboot_margin_v = 0.5;  ///< boot when VC > v_min + margin

  // Optional over-voltage shunt (protects bench-supply experiments).
  double ovp_shunt_v = 0.0;  ///< 0 disables
  double ovp_shunt_ohm = 0.5;

  /// Lower clamp on the node voltage in the I = P / V conversion of the
  /// constant-power load. Keeps the current finite through node collapse;
  /// platforms whose regulators stay alive below 50 mV (or sweeps over
  /// low-voltage designs) should lower it rather than inherit a silent
  /// distortion.
  double load_v_floor_v = 0.05;

  /// Initial operating point; platform's lowest OPP when unset.
  std::optional<soc::OperatingPoint> initial_opp;

  /// Resistor network of the threshold-monitor channels. The default suits
  /// the ODROID XU4's 4.1-5.7 V window; custom platforms with different
  /// node-voltage ranges must scale the divider (see
  /// examples/custom_platform.cpp).
  hw::ChannelNetwork monitor_network{};
};

/// Everything a run produces.
struct SimResult {
  SimMetrics metrics;
  RecordedSeries series;
  ctl::ControllerStats controller;  ///< zeroed unless the PNS controller ran
  bool used_controller = false;
  std::string control_name;
  pns::Histogram voltage_histogram{0.0, 8.0, 160};  ///< 50 mV dwell bins
};

/// One-shot simulation engine. Construct, call run(), discard.
class SimEngine {
 public:
  /// Power-neutral-controller mode (the paper's proposed system).
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config, ctl::ControllerConfig controller_config);

  /// Linux-governor mode (takes ownership of the governor).
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config, std::unique_ptr<gov::Governor> governor);

  /// Uncontrolled mode: the SoC stays at the initial OPP.
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config);

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Runs [t_start, t_end] to completion and returns the result.
  /// Callable once.
  SimResult run();

 private:
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config, ctl::ControllerConfig* controller_config,
            std::unique_ptr<gov::Governor> governor);

  double load_power(double v) const;
  /// SoC + threshold-monitor draw at the latched utilisation (W).
  double base_power() const;
  /// Over-voltage shunt dissipation at node voltage v (0 when disabled).
  double ovp_power(double v) const;
  /// load_power with the SoC + monitor term pre-computed (seg_p_base_).
  /// The SoC draw is constant between stop points, so the ODE callback
  /// only adds the voltage-dependent OVP term instead of re-walking the
  /// power model on every derivative evaluation.
  double segment_load_power(double v) const;
  double segment_load_current(double v) const;
  /// Recomputes seg_p_base_ from the current SoC state and latched
  /// utilisation. Must run before every integrator_.advance().
  void refresh_segment_power();
  /// Rebuilds events_ if the wanted event set changed (SoC power state,
  /// monitor arming, or a threshold moved); otherwise reuses it as-is.
  void refresh_events();
  /// After (re)calibration the node can already sit outside the window
  /// (e.g. it charged towards Voc during boot); real firmware reads the
  /// comparator GPIO *level* after programming the thresholds and services
  /// a pending interrupt immediately. This reproduces that check.
  void kick_if_outside(double vc, double t);
  Snapshot snapshot(double vc, double t) const;
  void dispatch_interrupt(hw::MonitorEdge edge, double t);

  /// First governor tick at or after `next_gov_tick` that is not
  /// provably a no-op for a segment starting at `seg_t0` (see
  /// SimConfig::gov_tick_elide); `next_gov_tick` itself when elision is
  /// off or cannot vouch for the next tick.
  double governor_stop(double seg_t0, double next_gov_tick) const;

  /// Steady-state coasting: if the span [t, horizon] (timed boundaries
  /// and the circuit's vouched time-invariance window, computed inside)
  /// is quiescent -- |dVC/dt| small enough that VC stays within
  /// the 0.1 mV drift budget, the flow at the budget's boundaries points
  /// inward (no jump across an unstable equilibrium), and every watched
  /// threshold is out of reach -- advances the integrator analytically to
  /// the horizon and returns true with `out` describing the jump.
  /// Requires refresh_segment_power() and refresh_events() to be current.
  bool try_coast(double t, double vc, double next_gov_tick,
                 ehsim::IntegrationResult& out);

  /// Direct Load adapter into segment_load_current: one virtual call per
  /// derivative evaluation instead of virtual + std::function + closure.
  struct OdeLoad final : ehsim::Load {
    explicit OdeLoad(const SimEngine& engine) : engine_(&engine) {}
    double current(double v, double /*t*/) const override {
      return engine_->segment_load_current(v);
    }
    /// The segment load is constant in t by construction; everything
    /// that changes it (OPP transitions, governor ticks, workload
    /// demand) already bounds the coasting horizon in try_coast.
    double constant_until(double /*t*/) const override {
      return std::numeric_limits<double>::infinity();
    }
    const SimEngine* engine_;
  };

  /// Identity of the event set watched over a segment; events_ is only
  /// re-derived when this changes.
  struct EventSetKey {
    bool off = false;
    bool watch_low = false, watch_high = false;
    double low_trip = 0.0, high_trip = 0.0;
    bool operator==(const EventSetKey&) const = default;
  };

  const soc::Platform* platform_;
  const ehsim::CurrentSource* source_;
  soc::Workload* workload_;
  SimConfig cfg_;

  soc::SocRuntime soc_;
  soc::TransitionPlanner planner_;
  std::optional<hw::VoltageMonitor> monitor_;
  std::optional<ctl::PowerNeutralController> controller_;
  std::unique_ptr<gov::Governor> governor_;

  OdeLoad load_;
  ehsim::EhCircuit circuit_;
  ehsim::Rk23Integrator integrator_;

  double latched_util_ = 1.0;
  double seg_p_base_ = 0.0;  ///< SoC + monitor power over this segment (W)
  std::vector<ehsim::EventSpec> events_;
  EventSetKey event_key_;
  bool event_key_valid_ = false;
  bool ran_ = false;
};

}  // namespace pns::sim
