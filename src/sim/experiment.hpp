// Paper fixtures and the final run assembly behind every experiment.
//
// The calibrated PV array, its shared interpolation table, the clear-sky
// envelope and the warm-start OPP are the paper's fixed setup. Solar
// scenarios are described and run through sweep::ScenarioSpec /
// sweep::run_scenario, which resolve their source and control and end in
// run_pv_control here; run_controlled_supply is the Fig. 11 bench supply,
// which is not a PV source.
#pragma once

#include <memory>
#include <optional>

#include "core/controller.hpp"
#include "ehsim/solar_cell.hpp"
#include "ehsim/sources.hpp"
#include "governors/governor.hpp"
#include "sim/engine.hpp"
#include "trace/irradiance.hpp"
#include "trace/supply_profiles.hpp"

namespace pns::sim {

/// The PV array of the paper's validation setup: 1340 cm^2
/// monocrystalline, calibrated so that at full sun Isc ~ 1.15 A,
/// Voc ~ 6.8 V and the MPP is ~5.4 W at 5.3 V (Fig. 13). Calibrated on
/// first use; later calls return copies of that one calibration.
ehsim::SolarCell paper_pv_array();

/// The 250 cm^2 cell of Fig. 1 (area-scaled version of the same array).
ehsim::SolarCell fig1_pv_cell();

/// Process-wide shared interpolation table for paper_pv_array() (built on
/// first use; immutable, safe to share across sweep workers). Tabulated
/// PV sources use this instead of rebuilding the table per run.
std::shared_ptr<const ehsim::PvTable> paper_pv_table();

/// Default clear-sky model for the paper's test days (UK summer day).
trace::ClearSky paper_clear_sky();

/// Which of the three control schemes a ControlSelection carries (the
/// dispatch tag of run_pv_control).
enum class ControlKind { kPowerNeutral, kGovernor, kStatic };

/// A fully resolved control scheme, ready to drive one engine: the
/// controller tuning for kPowerNeutral, a constructed governor for
/// kGovernor, the pinned operating point (when any) for kStatic. This is
/// what the sweep registry's control factories produce; move-only because
/// it owns the governor.
struct ControlSelection {
  ControlKind kind = ControlKind::kPowerNeutral;
  ctl::ControllerConfig controller{};            ///< kPowerNeutral only
  std::unique_ptr<gov::Governor> governor;       ///< kGovernor only
  std::optional<soc::OperatingPoint> static_opp; ///< kStatic; leaves
                                                 ///< config.initial_opp
                                                 ///< in force when unset

  static ControlSelection power_neutral(ctl::ControllerConfig config = {});
  static ControlSelection governed(std::unique_ptr<gov::Governor> governor);
  static ControlSelection pinned(std::optional<soc::OperatingPoint> opp);
};

/// Final assembly behind sweep::run_scenario: builds the standard raytrace
/// workload, applies the control scheme's warm-start defaults (only when
/// `warm_start`; the shadowing scenarios start from the spec's explicit
/// operating point) and runs one engine over `source`:
///   * kPowerNeutral + warm_start: anchors controller.v_ceiling just
///     above the regulation target and starts at the best OPP the opening
///     harvest can sustain (balanced_opp) -- the paper records systems
///     already in regulation.
///   * kGovernor + warm_start: starts at the lowest frequency with every
///     core online (stock Linux never hot-plugs).
///   * kStatic: pins config.initial_opp to `static_opp` when set.
SimResult run_pv_control(const soc::Platform& platform,
                         const ehsim::CurrentSource& source,
                         ControlSelection control, SimConfig sim_config,
                         bool warm_start);

/// Runs the bench-supply experiment (Fig. 11): a programmable source
/// behind `r_series` ohms drives the node.
SimResult run_controlled_supply(const soc::Platform& platform,
                                const trace::SupplyProfile& profile,
                                double r_series, SimConfig sim_config = {},
                                ctl::ControllerConfig controller = {});

/// Highest-throughput operating point whose board power fits within
/// `watts` (the platform's lowest OPP when even that does not fit). Used
/// to warm-start experiments "already in regulation", as the paper's
/// recordings of a continuously running system are.
soc::OperatingPoint balanced_opp(const soc::Platform& platform,
                                 double watts);

}  // namespace pns::sim
