// Tests for the open control/source plugin registries: spec-string round
// trips for every registered kind, diagnostics naming the valid choices,
// lossless equivalence between the programmatic factories and their spec
// strings, and the new trace/flicker sources end-to-end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_set>

#include "sweep/registry.hpp"
#include "sweep/presets.hpp"
#include "sweep/runner.hpp"
#include "trace/trace_io.hpp"
#include "util/time_series.hpp"

namespace pns::sweep {
namespace {

ScenarioSpec tiny_solar_spec() {
  ScenarioSpec s;
  s.t_start = 12.0 * 3600.0;
  s.t_end = s.t_start + 30.0;
  s.record_series = false;
  return s;
}

// ------------------------------------------------- spec-string round trips

// Composes "kind:k=default,..." from an entry's declared params (keys
// with no rendered default are skipped).
template <typename Entry>
std::string spec_with_defaults(const Entry& entry) {
  ParamMap params;
  for (const auto& p : entry.params)
    if (!p.default_value.empty()) params.set(p.key, p.default_value);
  return params.empty() ? entry.kind
                        : entry.kind + ":" + params.serialize();
}

TEST(Registry, EveryControlKindRoundTripsItsSpecString) {
  for (const auto& entry : ControlRegistry::instance().entries()) {
    // Bare kind.
    const ControlSpec bare = ControlSpec::parse(entry.kind);
    EXPECT_EQ(bare.spec_string(), entry.kind);
    EXPECT_EQ(ControlSpec::parse(bare.spec_string()), bare);
    // Kind with every advertised parameter at its default.
    const std::string text = spec_with_defaults(entry);
    const ControlSpec full = ControlSpec::parse(text);
    EXPECT_EQ(full.spec_string(), text) << entry.kind;
    EXPECT_EQ(ControlSpec::parse(full.spec_string()), full) << entry.kind;
  }
}

TEST(Registry, EveryRegisteredSourceRoundTripsItsSpecString) {
  for (const auto& entry : SourceRegistry::instance().entries()) {
    const SourceSpec bare = SourceSpec::parse(entry.kind);
    EXPECT_EQ(bare.spec_string(), entry.kind);
    EXPECT_EQ(SourceSpec::parse(bare.spec_string()), bare);
    const std::string text = spec_with_defaults(entry);
    const SourceSpec full = SourceSpec::parse(text);
    EXPECT_EQ(full.spec_string(), text) << entry.kind;
    EXPECT_EQ(SourceSpec::parse(full.spec_string()), full) << entry.kind;
  }
}

TEST(Registry, CompatFactoriesRoundTripThroughSpecStrings) {
  // The programmatic factories encode losslessly: parsing their spec
  // string reproduces the identical spec.
  const ControlSpec pns = ControlSpec::power_neutral(fig6_controller_config());
  EXPECT_EQ(ControlSpec::parse(pns.spec_string()), pns);

  const ControlSpec gov = ControlSpec::linux_governor("ondemand");
  EXPECT_EQ(gov.spec_string(), "gov:ondemand");
  EXPECT_EQ(ControlSpec::parse(gov.spec_string()), gov);

  const ControlSpec pin =
      ControlSpec::static_opp_point(soc::OperatingPoint{4, {4, 2}});
  EXPECT_EQ(pin.spec_string(), "static:opp=4,little=4,big=2");
  EXPECT_EQ(ControlSpec::parse(pin.spec_string()), pin);
}

TEST(Registry, EveryIntegratorKindRoundTripsItsSpecString) {
  for (const auto& entry : IntegratorRegistry::instance().entries()) {
    const IntegratorSpec bare = IntegratorSpec::parse(entry.kind);
    EXPECT_EQ(bare.spec_string(), entry.kind);
    EXPECT_EQ(IntegratorSpec::parse(bare.spec_string()), bare);
    const std::string text = spec_with_defaults(entry);
    const IntegratorSpec full = IntegratorSpec::parse(text);
    EXPECT_EQ(full.spec_string(), text) << entry.kind;
    EXPECT_EQ(IntegratorSpec::parse(full.spec_string()), full)
        << entry.kind;
  }
}

// Every SimConfig field an integrator kind may set, compared exactly.
void expect_numerics(const sim::SimConfig& got, const sim::SimConfig& want,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.max_segment_s, want.max_segment_s);
  EXPECT_EQ(got.max_ode_step_s, want.max_ode_step_s);
  EXPECT_EQ(got.rel_tol, want.rel_tol);
  EXPECT_EQ(got.abs_tol, want.abs_tol);
  EXPECT_EQ(got.step_control, want.step_control);
  EXPECT_EQ(got.event_localization, want.event_localization);
  EXPECT_EQ(got.coast, want.coast);
  EXPECT_EQ(got.coast_dv_tol_v, want.coast_dv_tol_v);
  EXPECT_EQ(got.gov_tick_elide, want.gov_tick_elide);
}

TEST(Registry, IntegratorKindsResolveToDistinctNumerics) {
  // Bare rk23 is the legacy reference leg: exactly the numerics every
  // SimConfig carried while it was the default engine.
  sim::SimConfig legacy;
  legacy.max_segment_s = 0.05;
  legacy.max_ode_step_s = 0.01;
  legacy.rel_tol = 1e-6;
  legacy.abs_tol = 1e-8;
  legacy.step_control = ehsim::StepControl::kClamped;
  legacy.event_localization = ehsim::EventLocalization::kBisection;
  legacy.coast = false;
  legacy.coast_dv_tol_v = 1e-4;
  legacy.gov_tick_elide = false;
  auto spec = tiny_solar_spec();
  spec.integrator = IntegratorSpec::parse("rk23");
  expect_numerics(make_sim_config(spec), legacy, "bare rk23");

  // The default spec is rk23pi, whose numerics are SimConfig{}'s -- the
  // sweep path and the direct sim:: path share one default.
  sim::SimConfig pi;
  pi.max_segment_s = 0.25;
  pi.max_ode_step_s = 0.25;
  pi.rel_tol = 1e-4;
  pi.abs_tol = 1e-8;
  pi.step_control = ehsim::StepControl::kPi;
  pi.event_localization = ehsim::EventLocalization::kDenseRoot;
  pi.coast = true;
  pi.coast_dv_tol_v = 1e-4;
  pi.gov_tick_elide = true;
  expect_numerics(sim::SimConfig{}, pi, "SimConfig{}");
  EXPECT_EQ(IntegratorSpec{}.kind, "rk23pi");
  spec.integrator = IntegratorSpec{};
  expect_numerics(make_sim_config(spec), pi, "default spec");
  spec.integrator = IntegratorSpec::parse("rk23pi");
  expect_numerics(make_sim_config(spec), pi, "bare rk23pi");

  spec.integrator = IntegratorSpec::parse(
      "rk23pi:rtol=1e-05,seg=0.1,coast=false");
  const auto tuned = make_sim_config(spec);
  EXPECT_DOUBLE_EQ(tuned.rel_tol, 1e-5);
  EXPECT_DOUBLE_EQ(tuned.max_segment_s, 0.1);
  EXPECT_DOUBLE_EQ(tuned.max_ode_step_s, 0.1);
  EXPECT_FALSE(tuned.coast);

  // The explicit "rk23" kind with numeric overrides tweaks tolerances
  // without flipping the engine.
  spec.integrator = IntegratorSpec::parse("rk23:rtol=1e-07");
  const auto tightened = make_sim_config(spec);
  EXPECT_EQ(tightened.step_control, ehsim::StepControl::kClamped);
  EXPECT_DOUBLE_EQ(tightened.rel_tol, 1e-7);
}

TEST(Registry, RetiredIntegratorKindsAreUnknown) {
  // The lockstep rk23batch/rk23simd engines are gone and their names are
  // not aliases: they fail like any unknown kind, naming the valid ones.
  for (const std::string kind : {"rk23batch", "rk23simd"}) {
    EXPECT_EQ(IntegratorRegistry::instance().find(kind), nullptr);
    try {
      IntegratorSpec::parse(kind + ":width=4");
      FAIL() << "expected ParamError for " << kind;
    } catch (const ParamError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown integrator '" + kind + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("rk23pi"), std::string::npos) << what;
    }
  }
  EXPECT_THROW(IntegratorSpec::parse("rk23pi:width=4"), ParamError);
}

// ------------------------------------------------------------ diagnostics

TEST(Registry, UnknownKindsNameTheValidChoices) {
  try {
    ControlSpec::parse("warp-speed");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'warp-speed'"), std::string::npos);
    EXPECT_NE(what.find("pns"), std::string::npos);
    EXPECT_NE(what.find("gov:ondemand"), std::string::npos);
    EXPECT_NE(what.find("static"), std::string::npos);
  }
  try {
    SourceSpec::parse("darkness");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("solar"), std::string::npos);
    EXPECT_NE(what.find("shadow"), std::string::npos);
    EXPECT_NE(what.find("trace"), std::string::npos);
    EXPECT_NE(what.find("flicker"), std::string::npos);
  }
}

TEST(Registry, UnknownAndMalformedParamsRejectedAtParseTime) {
  EXPECT_THROW(ControlSpec::parse("pns:warp=1"), ParamError);
  EXPECT_THROW(ControlSpec::parse("gov:ondemand:period=abc"), ParamError);
  EXPECT_THROW(SourceSpec::parse("flicker:cadence=3"), ParamError);
  EXPECT_THROW(IntegratorSpec::parse("rk99"), ParamError);
  EXPECT_THROW(IntegratorSpec::parse("rk23pi:warp=1"), ParamError);
  EXPECT_THROW(IntegratorSpec::parse("rk23pi:rtol=tight"), ParamError);
  // Unsigned tunables reject negatives at parse time, not mid-sweep.
  EXPECT_THROW(ControlSpec::parse("static:opp=-1"), ParamError);
  EXPECT_THROW(ControlSpec::parse("gov:userspace:index=-2"), ParamError);
  try {
    ControlSpec::parse("gov:ondemand:perod=0.05");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'perod'"), std::string::npos);
    EXPECT_NE(what.find("period"), std::string::npos);
    EXPECT_NE(what.find("up_threshold"), std::string::npos);
  }
}

TEST(Registry, BadWeatherParamNamesTheConditions) {
  auto spec = tiny_solar_spec();
  spec.source = SourceSpec::parse("solar:weather=apocalypse");
  try {
    resolve_source(spec);
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("apocalypse"), std::string::npos);
    EXPECT_NE(what.find("full-sun"), std::string::npos);
    EXPECT_NE(what.find("hail"), std::string::npos);
  }
}

// -------------------------------------------- factory/spec equivalence

TEST(Registry, PnsSpecStringDrivesBitIdenticalSimulation) {
  auto programmatic = tiny_solar_spec();
  programmatic.control = ControlSpec::power_neutral(fig6_controller_config());
  auto parsed = tiny_solar_spec();
  parsed.control = ControlSpec::parse(programmatic.control.spec_string());
  const auto a = run_scenario(programmatic);
  const auto b = run_scenario(parsed);
  EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
  EXPECT_EQ(a.metrics.energy_harvested_j, b.metrics.energy_harvested_j);
  EXPECT_EQ(a.metrics.vc_stats.mean(), b.metrics.vc_stats.mean());
}

TEST(Registry, GovernorParamsReachTheGovernor) {
  const auto spec = tiny_solar_spec();
  auto control = ControlSpec::parse("gov:ondemand:period=0.05");
  const auto sel = resolve_control(control, spec);
  ASSERT_EQ(sel.kind, sim::ControlKind::kGovernor);
  ASSERT_NE(sel.governor, nullptr);
  EXPECT_DOUBLE_EQ(sel.governor->sampling_period(), 0.05);
}

TEST(Registry, ControllerParamsReachTheConfig) {
  const auto spec = tiny_solar_spec();
  auto control = ControlSpec::parse("pns:v_q=0.04,ordering=freq-first");
  const auto sel = resolve_control(control, spec);
  ASSERT_EQ(sel.kind, sim::ControlKind::kPowerNeutral);
  EXPECT_DOUBLE_EQ(sel.controller.v_q, 0.04);
  EXPECT_EQ(sel.controller.ordering, soc::OrderingPolicy::kFreqFirst);
  // Untouched keys keep their defaults.
  EXPECT_DOUBLE_EQ(sel.controller.v_width, ctl::ControllerConfig{}.v_width);
}

TEST(Registry, StaticParamsResolveTheOperatingPoint) {
  const auto spec = tiny_solar_spec();
  const auto sel =
      resolve_control(ControlSpec::parse("static:opp=4,little=4,big=2"),
                      spec);
  ASSERT_EQ(sel.kind, sim::ControlKind::kStatic);
  ASSERT_TRUE(sel.static_opp.has_value());
  EXPECT_EQ(sel.static_opp->freq_index, 4u);
  EXPECT_EQ(sel.static_opp->cores, (soc::CoreConfig{4, 2}));
  EXPECT_THROW(
      resolve_control(ControlSpec::parse("static:opp=99"), spec),
      ParamError);
}

TEST(Registry, SolarWeatherParamOverridesTheCondition) {
  auto by_axis = tiny_solar_spec();
  by_axis.condition = trace::WeatherCondition::kCloud;
  auto by_param = tiny_solar_spec();  // condition left at full-sun
  by_param.source = SourceSpec::parse("solar:weather=cloud");
  by_param.control = by_axis.control;
  const auto a = run_scenario(by_axis);
  const auto b = run_scenario(by_param);
  EXPECT_EQ(a.metrics.energy_harvested_j, b.metrics.energy_harvested_j);
  EXPECT_EQ(source_condition_label(by_param), "cloud");
}

TEST(Registry, ShadowParamsOverrideTheShadowSpec) {
  ScenarioSpec by_field = fig6_shadowing_base();
  by_field.shadow.depth = 0.2;
  by_field.control = ControlSpec::static_opp_point(*by_field.initial_opp);
  ScenarioSpec by_param = fig6_shadowing_base();
  by_param.source = SourceSpec::parse("shadow:depth=0.2");
  by_param.control = by_field.control;
  const auto a = run_scenario(by_field);
  const auto b = run_scenario(by_param);
  EXPECT_EQ(a.metrics.energy_harvested_j, b.metrics.energy_harvested_j);
  EXPECT_EQ(a.metrics.vc_stats.min(), b.metrics.vc_stats.min());
}

// ----------------------------------------------------- new source kinds

TEST(Registry, FlickerSourceRunsEndToEnd) {
  auto spec = tiny_solar_spec();
  spec.source = SourceSpec::parse("flicker:period=10,depth=0.5,duty=0.4");
  const auto r = run_scenario(spec);
  EXPECT_TRUE(r.used_controller);  // default control is pns
  EXPECT_GT(r.metrics.energy_harvested_j, 0.0);
  // Deterministic: no seed sensitivity at all.
  auto reseeded = spec;
  reseeded.seed = spec.seed + 17;
  EXPECT_EQ(run_scenario(reseeded).metrics.energy_harvested_j,
            r.metrics.energy_harvested_j);
}

TEST(Registry, TraceSourceRunsFromCsv) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pns-trace-src-" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    TimeSeries series;
    series.append(0.0, 0.0);
    series.append(12.0 * 3600.0, 800.0);
    series.append(24.0 * 3600.0, 0.0);
    ASSERT_TRUE(trace::save_trace_csv(path, series));
  }
  auto spec = tiny_solar_spec();
  spec.source = SourceSpec::parse("trace:file=" + path);
  const auto r = run_scenario(spec);
  EXPECT_GT(r.metrics.energy_harvested_j, 0.0);
  // scale= attenuates the harvest.
  spec.source = SourceSpec::parse("trace:file=" + path + ",scale=0.5");
  const auto half = run_scenario(spec);
  EXPECT_LT(half.metrics.energy_harvested_j, r.metrics.energy_harvested_j);
  std::filesystem::remove(path);

  // A missing file is a per-scenario error, not a crash.
  auto bad = tiny_solar_spec();
  bad.source = SourceSpec::parse("trace:file=/no/such/file.csv");
  EXPECT_THROW(run_scenario(bad), std::exception);
}

// -------------------------------------------------- extension mechanics

TEST(Registry, RuntimeRegisteredKindIsReachableFromSpecs) {
  // A user-registered control kind (a trivial "pin the top OPP" policy)
  // becomes addressable by spec string with no other wiring.
  static bool registered = false;
  if (!registered) {
    ControlRegistry::instance().add(ControlEntry{
        "test-top",
        "test-only: pin the highest frequency",
        {},
        [](const ScenarioSpec& spec, const ParamMap&) {
          return sim::ControlSelection::pinned(soc::OperatingPoint{
              spec.platform.opps.max_index(), spec.platform.max_cores});
        },
    });
    registered = true;
  }
  auto spec = tiny_solar_spec();
  spec.control = ControlSpec::parse("test-top");
  const auto r = run_scenario(spec);
  EXPECT_FALSE(r.used_controller);
  EXPECT_GT(r.metrics.instructions, 0.0);
  EXPECT_THROW(
      ControlRegistry::instance().add(ControlEntry{"test-top", "", {}, {}}),
      std::invalid_argument);
}

TEST(Registry, DepthAxisGatesPerSourceNotPerBase) {
  // A shadowing base overridden by a non-shadow sources axis must not
  // clone identical scenarios over the now-meaningless depth axis...
  SweepSpec sw;
  sw.base = fig6_shadowing_base();
  sw.shadow_depths = {0.2, 0.3, 0.4, 0.5};
  sw.sources = {SourceSpec::parse("flicker:period=10")};
  EXPECT_EQ(sw.size(), 1u);
  EXPECT_EQ(sw.expand().size(), 1u);

  // ...while a mixed axis keeps the depth sweep for its shadow member
  // only, with unique labels throughout.
  sw.sources = {SourceSpec::parse("flicker:period=10"),
                SourceSpec::parse("shadow")};
  EXPECT_EQ(sw.size(), 1u + 4u);
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 5u);
  std::unordered_set<std::string> labels;
  for (const auto& s : specs) labels.insert(s.label);
  EXPECT_EQ(labels.size(), specs.size());
}

TEST(Registry, ConditionAxisGatesPerSource) {
  // Sources that ignore ScenarioSpec::condition must not multiply over
  // the weather axis (`pns_sweep weather --source shadow:...` used to
  // clone 4 identical scenarios per control).
  SweepSpec sw = weather_sweep(2.0);
  const std::size_t n_controls = sw.controls.size();
  ASSERT_EQ(sw.size(), 4u * n_controls);
  sw.sources = {SourceSpec::parse("shadow:depth=0.5")};
  EXPECT_EQ(sw.size(), n_controls);
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), n_controls);
  std::unordered_set<std::string> labels;
  for (const auto& s : specs) labels.insert(s.label);
  EXPECT_EQ(labels.size(), specs.size());
  // A mixed axis keeps the weather multiplication for solar only.
  sw.sources = {SourceSpec::parse("solar"),
                SourceSpec::parse("flicker:period=10")};
  EXPECT_EQ(sw.size(), 4u * n_controls + n_controls);
  EXPECT_EQ(sw.expand().size(), sw.size());
}

TEST(Registry, SourceAxisExpandsAndLabels) {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.sources = {SourceSpec::parse("solar"),
                SourceSpec::parse("flicker:period=10")};
  sw.seeds = {1, 2};
  EXPECT_EQ(sw.size(), 4u);
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].label, "full-sun/pns/seed=1");
  EXPECT_EQ(specs[2].label, "flicker/pns/seed=1");
}

}  // namespace
}  // namespace pns::sweep
