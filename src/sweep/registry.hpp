// Open control/source plugin registries behind the spec-string API.
//
// Both axes of the paper's parameter studies -- *how the SoC is
// controlled* and *what feeds the storage node* -- are registries of
// named factories instead of closed enums. A registry entry carries the
// kind string, a one-line summary, the ParamInfo list of accepted keys
// (so diagnostics and `pns_sweep list` can never go stale) and the
// factory that resolves a validated ParamMap into the runnable artefact:
// a sim::ControlSelection for controls, an ehsim::PvSource for sources.
//
// Built-ins are registered on first use from three provider units --
// register_controls.cpp (core/'s power-neutral controller + the static
// baseline, governors/' six stock governors through the widened
// make_governor API) and register_sources.cpp (trace/'s solar-weather,
// shadowing, CSV-trace and cloud-flicker sources). User code can add
// kinds at startup with ControlRegistry::instance().add(...) -- see
// docs/architecture.md, "Adding a control or source kind".
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ehsim/sources.hpp"
#include "sim/experiment.hpp"
#include "sweep/assets.hpp"
#include "sweep/scenario.hpp"
#include "util/interp.hpp"
#include "util/params.hpp"

namespace pns::sweep {

/// One registered control kind.
struct ControlEntry {
  /// Registry key: the spec string's kind path ("pns", "gov:ondemand").
  std::string kind;
  std::string summary;            ///< one-liner for `pns_sweep list`
  std::vector<ParamInfo> params;  ///< accepted keys (validated, listed)
  /// Resolves validated params for a concrete scenario. Called once per
  /// run_scenario, on the worker thread executing it.
  std::function<sim::ControlSelection(const ScenarioSpec&, const ParamMap&)>
      make;
};

/// One registered source kind.
struct SourceEntry {
  std::string kind;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Daylight semantics: v_target defaults to the array MPP (5.3 V) and
  /// the warm-start rules of sim::run_pv_control apply. False for the
  /// shadowing stress scenarios, which start from the spec's explicit
  /// operating point with the band disabled.
  bool solar_defaults = true;
  /// Whether this kind reads ScenarioSpec::condition (the weather axis).
  /// SweepSpec::expand() collapses the conditions axis for kinds that do
  /// not, instead of multiplying out identical scenarios.
  bool uses_condition = false;
  /// The "condition" cell of reports/labels for a scenario of this kind
  /// (e.g. the weather name for "solar", the fixed string "shadowing").
  std::function<std::string(const ScenarioSpec&)> condition_label;
  /// Builds the harvester feeding the storage node for one scenario.
  /// `assets` is the sweep's immutable-input cache, shared by all its
  /// workers (sweep/assets.hpp); factories whose inputs are expensive pure
  /// functions of the spec should build them through it, others may
  /// ignore it.
  std::function<ehsim::PvSource(const ScenarioSpec&, const ParamMap&,
                                ScenarioAssets&)>
      make;
};

/// One registered integrator kind. Unlike controls/sources, an
/// integrator resolves to *numerics*: its apply hook rewrites the
/// SimConfig a scenario runs under (step-control law, event
/// localisation, tolerances, coasting).
struct IntegratorEntry {
  std::string kind;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Applies the kind's tuning (validated params) onto the resolved
  /// SimConfig. Called from make_sim_config.
  std::function<void(const ScenarioSpec&, const ParamMap&, sim::SimConfig&)>
      apply;
};

/// One registered platform kind. Resolves to a complete soc::Platform:
/// "mono" returns the paper's single-domain board untouched (the
/// byte-identical default) and topology kinds compile a
/// soc::PlatformTopology into a joint-ladder platform.
struct PlatformEntry {
  std::string kind;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Builds the platform from validated params. Called once per
  /// run_scenario before control/source resolution.
  std::function<soc::Platform(const ParamMap&)> make;
};

/// Registry of control kinds. instance() is created thread-safely on
/// first use with the built-ins already registered; add() further kinds
/// before sweeps start (registration is not synchronised against
/// concurrent lookups).
class ControlRegistry {
 public:
  static ControlRegistry& instance();

  /// Registers a kind; throws std::invalid_argument on a duplicate.
  void add(ControlEntry entry);
  /// nullptr when unknown.
  const ControlEntry* find(const std::string& kind) const;
  /// Throws ParamError naming the valid kinds when unknown.
  const ControlEntry& require(const std::string& kind) const;
  const std::vector<ControlEntry>& entries() const { return entries_; }

 private:
  ControlRegistry() = default;
  std::vector<ControlEntry> entries_;
};

/// Registry of source kinds; same contract as ControlRegistry.
class SourceRegistry {
 public:
  static SourceRegistry& instance();

  void add(SourceEntry entry);
  const SourceEntry* find(const std::string& kind) const;
  const SourceEntry& require(const std::string& kind) const;
  const std::vector<SourceEntry>& entries() const { return entries_; }

 private:
  SourceRegistry() = default;
  std::vector<SourceEntry> entries_;
};

/// Registry of integrator kinds; same contract as ControlRegistry.
class IntegratorRegistry {
 public:
  static IntegratorRegistry& instance();

  void add(IntegratorEntry entry);
  const IntegratorEntry* find(const std::string& kind) const;
  const IntegratorEntry& require(const std::string& kind) const;
  const std::vector<IntegratorEntry>& entries() const { return entries_; }

 private:
  IntegratorRegistry() = default;
  std::vector<IntegratorEntry> entries_;
};

/// Registry of platform kinds; same contract as ControlRegistry.
class PlatformRegistry {
 public:
  static PlatformRegistry& instance();

  void add(PlatformEntry entry);
  const PlatformEntry* find(const std::string& kind) const;
  const PlatformEntry& require(const std::string& kind) const;
  const std::vector<PlatformEntry>& entries() const { return entries_; }

 private:
  PlatformRegistry() = default;
  std::vector<PlatformEntry> entries_;
};

/// Resolves a platform spec through the registry (same diagnostics
/// contract as resolve_control): unknown kinds and parameter keys throw
/// ParamError naming the valid choices.
soc::Platform resolve_platform(const PlatformSpec& platform);

/// Resolves a control spec for `spec` through the registry: unknown
/// kinds and parameter keys throw ParamError naming the valid choices;
/// parameter values are decoded by the entry's factory.
sim::ControlSelection resolve_control(const ControlSpec& control,
                                      const ScenarioSpec& spec);

/// Builds the harvester for `spec.source` through the registry (same
/// diagnostics contract as resolve_control), using `assets` for
/// shareable inputs.
ehsim::PvSource resolve_source(const ScenarioSpec& spec,
                               ScenarioAssets& assets);

/// Convenience overload with a throwaway asset cache.
ehsim::PvSource resolve_source(const ScenarioSpec& spec);

/// The one PV source builder behind every built-in source kind: the
/// calibrated paper array (sharing sim::paper_pv_table() in tabulated
/// mode) driven by `scale` times the shared irradiance `trace`, with the
/// trace's flat spans declared through PvSource::set_irradiance_hold so
/// the coasting fast path can jump across them. Both lookups use the
/// hinted O(1) forms, bit-identical to plain evaluation, and the default
/// scale of 1 is exact, so an unscaled trace samples bit-identically to
/// the trace itself. The source keeps the trace alive.
ehsim::PvSource pv_source_from_trace(
    std::shared_ptr<const pns::PiecewiseLinear> trace,
    ehsim::PvSource::Mode mode, double scale = 1.0);

/// Applies `spec.integrator` onto `cfg` through the integrator registry
/// (same diagnostics contract as resolve_control). Called by
/// make_sim_config.
void resolve_integrator(const ScenarioSpec& spec, sim::SimConfig& cfg);

/// The report/label "condition" string of a scenario: its source kind's
/// condition_label, or the bare kind string when the kind is unknown
/// (expansion must not throw for a spec whose failure belongs to
/// run_scenario).
std::string source_condition_label(const ScenarioSpec& spec);

/// Whether `kind` reads the weather-condition axis (see
/// SourceEntry::uses_condition). True for unknown kinds, so expansion
/// stays permissive and the hard error lands in run_scenario.
bool source_uses_condition(const std::string& kind);

/// Built-in registration units (called once by the registries' lazy
/// constructors; separated per provider domain).
void register_builtin_controls(ControlRegistry& registry);
void register_builtin_sources(SourceRegistry& registry);
void register_builtin_integrators(IntegratorRegistry& registry);
void register_builtin_platforms(PlatformRegistry& registry);

}  // namespace pns::sweep
