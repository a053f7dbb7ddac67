// Declarative scenario specification for batch simulation.
//
// Every headline result of the paper is a *sweep* -- governors x weather x
// capacitances x operating points (Figs. 6-15, Tables I-II). A
// ScenarioSpec names one fully determined simulation point as plain data;
// a SweepSpec expands a cartesian product of axes into a vector of specs.
// Because specs are data, a sweep can be executed serially, across a
// thread pool (sweep/runner.hpp), or sharded across machines, without the
// experiment code changing.
//
// Control and source selection are *open*: a ControlSpec/SourceSpec is a
// registry kind plus a typed ParamMap (sweep/registry.hpp), addressable
// as a compact spec string -- "pns:v_q=0.04", "gov:ondemand:period=0.05",
// "static:opp=4", "shadow:depth=0.2,hold=5", "trace:file=day.csv",
// "flicker:period=30". New policies and supply shapes register a factory
// instead of editing this file and the CLI in lockstep. A resolved control
// spec becomes a sim::ControlSelection, whose sim::ControlKind tag is
// run_pv_control's dispatch over the three control schemes -- not a
// second way to name a control.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "soc/platform.hpp"
#include "trace/weather.hpp"
#include "util/params.hpp"

namespace pns::sweep {

/// Parameters of the deterministic shadowing-event source (Fig. 6): full
/// irradiance, a linear collapse to `depth` at `t_event`, a hold, and a
/// recovery ramp. All times are offsets relative to the scenario's
/// t_start, so shifting the window shifts the event with it. Spec-string
/// params of the "shadow" kind override these field-wise.
struct ShadowingSpec {
  double t_event_s = 2.0;
  double t_fall_s = 0.4;
  double hold_s = 3.2;
  double t_rise_s = 0.4;
  double depth = 0.40;       ///< transmittance floor during the shadow
  double peak_wm2 = 1000.0;  ///< irradiance outside the shadow
};

/// Open source selection: a registry kind ("solar", "shadow", "trace",
/// "flicker", or anything registered at runtime) plus its parameters.
struct SourceSpec {
  std::string kind = "solar";
  ParamMap params;

  /// Round-trippable "kind" / "kind:key=value,..." form (identity in
  /// journal headers and CLI flags).
  std::string spec_string() const;

  /// Parses a spec string, validating the kind and its parameter keys
  /// against the source registry; errors name the valid choices. Defined
  /// in registry.cpp.
  static SourceSpec parse(std::string_view text);

  bool operator==(const SourceSpec&) const = default;
};

/// Open integrator selection: a registry kind ("rk23pi" -- the default:
/// PI step control, dense-output event roots and steady-state coasting at
/// sim::SimConfig{}'s numerics -- or "rk23" -- the original engine and
/// the reference numerics the error budget measures rk23pi against) plus
/// numeric overrides, e.g.
/// "rk23pi:rtol=1e-05,coast=false". Resolved by make_sim_config through
/// the integrator registry (sweep/registry.hpp).
struct IntegratorSpec {
  std::string kind = "rk23pi";
  ParamMap params;

  /// Round-trippable "kind" / "kind:key=value,..." form.
  std::string spec_string() const;

  /// Parses a spec string, validating the kind and its parameter keys
  /// against the integrator registry. Defined in registry.cpp.
  static IntegratorSpec parse(std::string_view text);

  bool operator==(const IntegratorSpec&) const = default;
};

/// Open platform selection: a registry kind ("mono" -- the paper's
/// single-domain ODROID XU4, byte-identical default -- or "biglittle" /
/// anything registered at runtime) plus params, e.g.
/// "biglittle:little_cores=4,big_cores=4,arbiter=demand". Resolved into
/// a compiled soc::Platform (soc/topology.hpp) by run_scenario before
/// control/source resolution. Like pv_mode and the integrator this is a
/// whole-sweep knob, not an axis.
struct PlatformSpec {
  std::string kind = "mono";
  ParamMap params;

  /// Round-trippable "kind" / "kind:key=value,..." form.
  std::string spec_string() const;

  /// Parses a spec string, validating the kind and its parameter keys
  /// against the platform registry. Defined in registry.cpp.
  static PlatformSpec parse(std::string_view text);

  bool operator==(const PlatformSpec&) const = default;
};

/// Open control selection: a registry kind ("pns", "static",
/// "gov:<name>", ...) plus its parameters. The compat factories encode
/// their typed arguments into the ParamMap losslessly (shortest_double),
/// so a programmatically built spec and its string form drive
/// bit-identical simulations.
struct ControlSpec {
  std::string kind = "pns";
  ParamMap params;

  /// Compact row identity for labels and reports: the kind alone ("pns",
  /// "gov:ondemand", "static"); parameters are deliberately omitted --
  /// SweepSpec::expand() disambiguates duplicates positionally.
  std::string label() const { return kind; }

  /// Round-trippable "kind" / "kind:key=value,..." form.
  std::string spec_string() const;

  /// Parses a spec string, validating the kind and its parameter keys
  /// against the control registry; errors name the valid choices.
  /// Defined in registry.cpp.
  static ControlSpec parse(std::string_view text);

  /// The governor name of a "gov:<name>" kind; empty otherwise.
  std::string governor_name() const;

  static ControlSpec power_neutral(ctl::ControllerConfig config = {});
  static ControlSpec linux_governor(std::string name);
  static ControlSpec static_opp_point(soc::OperatingPoint opp);

  bool operator==(const ControlSpec&) const = default;
};

/// One fully determined simulation point. Value semantics throughout: a
/// spec can be copied, stored, compared in logs and shipped to a worker.
struct ScenarioSpec {
  /// Human-readable identity; SweepSpec::expand() composes one from the
  /// axis values when empty.
  std::string label;

  soc::Platform platform = soc::Platform::odroid_xu4();
  /// When not "mono", run_scenario resolves this through the platform
  /// registry and replaces `platform` with the compiled topology before
  /// anything else (static controls validate OPPs against it).
  PlatformSpec platform_spec{};

  SourceSpec source{};
  trace::WeatherCondition condition = trace::WeatherCondition::kFullSun;
  ShadowingSpec shadow{};  ///< used when source is the "shadow" kind

  ControlSpec control{};

  // Time window and weather synthesis (defaults: the paper's 10:30-16:30
  // recording window).
  double t_start = 10.5 * 3600.0;
  double t_end = 16.5 * 3600.0;
  std::uint64_t seed = 42;
  double trace_dt_s = 0.1;
  /// PV evaluation mode (exact Newton vs measured-error table); applies to
  /// every source kind that models the PV array.
  ehsim::PvSource::Mode pv_mode = ehsim::PvSource::Mode::kExact;
  /// Integration engine; the default is rk23pi (IntegratorSpec{}). Like
  /// pv_mode this is a whole-sweep knob, not an axis.
  IntegratorSpec integrator{};

  // Storage node and regulation band.
  double capacitance_f = 47e-3;
  double band_fraction = 0.05;
  double vc0 = 5.3;
  /// Band centre; when unset: 5.3 V (the array MPP) for daylight sources,
  /// 0 (disabled) for shadowing scenarios, matching the paper's setups.
  std::optional<double> v_target;

  // Run semantics.
  bool enable_reboot = true;
  bool record_series = false;
  double record_interval_s = 0.25;
  /// Initial operating point; run_pv_control's warm-start defaults apply
  /// when unset (see sim/experiment.hpp).
  std::optional<soc::OperatingPoint> initial_opp;

  double duration() const { return t_end - t_start; }
};

/// Builds the SimConfig a spec resolves to (exposed for tests and for
/// callers that need to tweak numerics before running).
sim::SimConfig make_sim_config(const ScenarioSpec& spec);

class ScenarioAssets;  // sweep/assets.hpp

/// Runs one scenario to completion on the calling thread, resolving the
/// source and control through their registries (sweep/registry.hpp).
/// Constructs a fresh one-shot SimEngine internally; thread-safe with
/// respect to other concurrent run_scenario calls on distinct specs.
sim::SimResult run_scenario(const ScenarioSpec& spec);

/// Same, but reusing `assets` -- a cache of immutable scenario inputs
/// (synthesised weather traces and the like) -- so rows that share a
/// trace stop re-synthesising it. Results are bit-identical to the
/// cache-free overload: cached assets are pure functions of their keys.
/// `assets` is thread-safe; SweepRunner shares one across its workers.
sim::SimResult run_scenario(const ScenarioSpec& spec,
                            ScenarioAssets& assets);

/// What one scenario produced. `ok == false` means run_scenario threw
/// (including unknown kinds/params in its specs); the exception text is
/// preserved and the sweep continues (one diverging configuration must
/// not sink a thousand-point overnight run).
struct SweepOutcome {
  ScenarioSpec spec;
  sim::SimResult result;  ///< valid only when ok
  bool ok = false;
  std::string error;
  double wall_s = 0.0;  ///< execution wall-clock (excluded from aggregates)
};

/// Cartesian product of sweep axes over a base scenario. An empty axis
/// means "hold the base value"; non-empty axes multiply. Expansion order
/// is deterministic: sources (outermost), conditions, controls,
/// capacitances, shadow depths, seeds (innermost).
struct SweepSpec {
  ScenarioSpec base;
  std::vector<SourceSpec> sources;
  std::vector<trace::WeatherCondition> conditions;
  std::vector<ControlSpec> controls;
  std::vector<double> capacitances_f;
  std::vector<double> shadow_depths;  ///< shadowing scenarios only
  std::vector<std::uint64_t> seeds;

  /// Number of scenarios expand() will produce.
  std::size_t size() const;

  /// Expands the product into concrete specs with composed labels.
  std::vector<ScenarioSpec> expand() const;
};

}  // namespace pns::sweep
