#include "sweep/scenario.hpp"

#include <cstdio>
#include <utility>

#include "ehsim/sources.hpp"
#include "sweep/assets.hpp"
#include "sweep/registry.hpp"
#include "util/contracts.hpp"

namespace pns::sweep {

const char* to_string(SourceKind k) {
  switch (k) {
    case SourceKind::kSolarWeather: return "solar";
    case SourceKind::kShadowing: return "shadowing";
  }
  return "?";
}

SourceSpec::SourceSpec(SourceKind k)
    : kind(k == SourceKind::kShadowing ? "shadow" : "solar") {}

bool operator==(const SourceSpec& spec, SourceKind kind) {
  return spec.kind == SourceSpec(kind).kind;
}

std::string SourceSpec::spec_string() const {
  return params.empty() ? kind : kind + ":" + params.serialize();
}

std::string ControlSpec::spec_string() const {
  return params.empty() ? kind : kind + ":" + params.serialize();
}

std::string IntegratorSpec::spec_string() const {
  return params.empty() ? kind : kind + ":" + params.serialize();
}

std::string PlatformSpec::spec_string() const {
  return params.empty() ? kind : kind + ":" + params.serialize();
}

std::string ControlSpec::governor_name() const {
  constexpr std::string_view prefix = "gov:";
  if (kind.size() <= prefix.size() || kind.compare(0, prefix.size(), prefix))
    return {};
  return kind.substr(prefix.size());
}

ControlSpec ControlSpec::power_neutral(ctl::ControllerConfig config) {
  ControlSpec c;
  c.kind = "pns";
  c.params = ctl::controller_config_to_params(config);
  return c;
}

ControlSpec ControlSpec::linux_governor(std::string name) {
  ControlSpec c;
  c.kind = "gov:" + std::move(name);
  return c;
}

ControlSpec ControlSpec::static_opp_point(soc::OperatingPoint opp) {
  ControlSpec c;
  c.kind = "static";
  c.params.set_uint("opp", opp.freq_index);
  c.params.set_int("little", opp.cores.n_little);
  c.params.set_int("big", opp.cores.n_big);
  return c;
}

sim::SimConfig make_sim_config(const ScenarioSpec& spec) {
  sim::SimConfig cfg;
  cfg.t_start = spec.t_start;
  cfg.t_end = spec.t_end;
  cfg.capacitance_f = spec.capacitance_f;
  cfg.band_fraction = spec.band_fraction;
  cfg.vc0 = spec.vc0;
  // Daylight scenarios regulate around the array MPP as in the paper;
  // shadowing scenarios disable the band (Fig. 6 reports raw VC). An
  // unknown source kind defaults solar-style here and fails with the
  // registry's diagnostics in run_scenario.
  const SourceEntry* entry = SourceRegistry::instance().find(spec.source.kind);
  const double default_target = entry && !entry->solar_defaults ? 0.0 : 5.3;
  cfg.v_target = spec.v_target.value_or(default_target);
  cfg.enable_reboot = spec.enable_reboot;
  cfg.record_series = spec.record_series;
  cfg.record_interval_s = spec.record_interval_s;
  cfg.initial_opp = spec.initial_opp;
  // The integrator kind rewrites the numerics last, so its overrides win
  // over the scenario defaults ("rk23pi" with no params is the identity).
  resolve_integrator(spec, cfg);
  return cfg;
}

sim::SimResult run_scenario(const ScenarioSpec& spec,
                            ScenarioAssets& assets) {
  // A non-default platform spec compiles into spec.platform *before*
  // anything else: static controls validate their OPP against the
  // resolved ladder and governors size their state from it. The default
  // ("mono", no params) takes the untouched legacy path.
  if (spec.platform_spec != PlatformSpec{}) {
    ScenarioSpec resolved = spec;
    resolved.platform = resolve_platform(spec.platform_spec);
    resolved.platform_spec = PlatformSpec{};
    return run_scenario(resolved, assets);
  }
  PNS_EXPECTS(spec.t_end > spec.t_start);
  PNS_EXPECTS(spec.capacitance_f > 0.0);
  const SourceEntry& source_entry =
      SourceRegistry::instance().require(spec.source.kind);
  // Resolve the control first: a bad control spec should not cost a
  // weather-trace synthesis.
  sim::ControlSelection control = resolve_control(spec.control, spec);
  const ehsim::PvSource source = resolve_source(spec, assets);
  return sim::run_pv_control(spec.platform, source, std::move(control),
                             make_sim_config(spec),
                             source_entry.solar_defaults);
}

sim::SimResult run_scenario(const ScenarioSpec& spec) {
  ScenarioAssets assets;
  return run_scenario(spec, assets);
}

namespace {

std::string fmt_mf(double farads) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%gmF", farads * 1e3);
  return buf;
}

/// Positionally disambiguates duplicate axis labels ("pns" twice for two
/// controller tunings) with a "#<index>" suffix.
void suffix_duplicates(std::vector<std::string>& labels) {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::size_t dups = 0;
    for (std::size_t j = 0; j < labels.size(); ++j)
      dups += j != i && labels[j] == labels[i];
    if (dups > 0) {
      labels[i] += "#";
      labels[i] += std::to_string(i);
    }
  }
}

}  // namespace

std::size_t SweepSpec::size() const {
  auto axis = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  // The depth axis only means something for shadowing sources; ignoring
  // it otherwise keeps a reused spec from multiplying out identical
  // runs. With a sources axis in play the gate is per source, so the
  // product becomes a sum over the sources axis.
  const std::vector<SourceSpec> srcs =
      sources.empty() ? std::vector{base.source} : sources;
  std::size_t total = 0;
  for (const auto& src : srcs) {
    const std::size_t depth_axis =
        src == SourceKind::kShadowing ? axis(shadow_depths.size()) : 1;
    const std::size_t cond_axis =
        source_uses_condition(src.kind) ? axis(conditions.size()) : 1;
    total += cond_axis * axis(controls.size()) *
             axis(capacitances_f.size()) * depth_axis * axis(seeds.size());
  }
  return total;
}

std::vector<ScenarioSpec> SweepSpec::expand() const {
  // Materialise every axis, substituting the base value for empty ones so
  // the nested product below stays uniform.
  const std::vector<SourceSpec> srcs =
      sources.empty() ? std::vector{base.source} : sources;
  const std::vector<trace::WeatherCondition> conds =
      conditions.empty() ? std::vector{base.condition} : conditions;
  const std::vector<ControlSpec> ctls =
      controls.empty() ? std::vector{base.control} : controls;
  const std::vector<double> caps =
      capacitances_f.empty() ? std::vector{base.capacitance_f}
                             : capacitances_f;
  // The depth and condition axes apply per source: only shadowing specs
  // multiply over depths, and only condition-reading kinds (solar) over
  // conditions -- an axis a source ignores would clone identical
  // scenarios under identical labels.
  auto depths_for = [&](const SourceSpec& src) {
    return src == SourceKind::kShadowing && !shadow_depths.empty()
               ? shadow_depths
               : std::vector{base.shadow.depth};
  };
  auto conds_for = [&](const SourceSpec& src) {
    return source_uses_condition(src.kind) ? conds
                                           : std::vector{base.condition};
  };
  const std::vector<std::uint64_t> sds =
      seeds.empty() ? std::vector{base.seed} : seeds;

  // Controls that differ only in configuration (e.g. two controller
  // tunings) share a ControlSpec::label(); suffix duplicates with their
  // axis position so every expanded scenario keeps a unique label. Source
  // kinds get the same treatment (two "trace" sources with different
  // files).
  std::vector<std::string> ctl_labels;
  ctl_labels.reserve(ctls.size());
  for (const auto& c : ctls) ctl_labels.push_back(c.label());
  suffix_duplicates(ctl_labels);
  std::vector<std::string> src_suffixes(srcs.size());
  {
    std::vector<std::string> kinds;
    kinds.reserve(srcs.size());
    for (const auto& s : srcs) kinds.push_back(s.kind);
    suffix_duplicates(kinds);
    for (std::size_t i = 0; i < srcs.size(); ++i)
      if (kinds[i] != srcs[i].kind)
        src_suffixes[i] = kinds[i].substr(srcs[i].kind.size());
  }

  std::vector<ScenarioSpec> out;
  out.reserve(size());
  for (std::size_t si = 0; si < srcs.size(); ++si) {
    const std::vector<double> depths = depths_for(srcs[si]);
    for (const auto& cond : conds_for(srcs[si])) {
      for (std::size_t ci = 0; ci < ctls.size(); ++ci) {
        const auto& ctl = ctls[ci];
        for (double cap : caps) {
          for (double depth : depths) {
            for (std::uint64_t seed : sds) {
              ScenarioSpec s = base;
              s.source = srcs[si];
              s.condition = cond;
              s.control = ctl;
              s.capacitance_f = cap;
              s.shadow.depth = depth;
              s.seed = seed;
              // Compose a label from the axes that actually vary (always
              // include the control: it is the row identity in reports).
              std::string label = source_condition_label(s);
              label += src_suffixes[si];
              label += "/";
              label += ctl_labels[ci];
              if (s.source == SourceKind::kShadowing) {
                if (shadow_depths.size() > 1) {
                  char buf[32];
                  std::snprintf(buf, sizeof buf, "/depth=%g", depth);
                  label += buf;
                }
              }
              if (capacitances_f.size() > 1) {
                label += "/";
                label += fmt_mf(cap);
              }
              if (seeds.size() > 1) {
                label += "/seed=";
                label += std::to_string(seed);
              }
              if (base.label.empty()) {
                s.label = std::move(label);
              } else {
                s.label = base.label;
                s.label += "/";
                s.label += label;
              }
              out.push_back(std::move(s));
            }
          }
        }
      }
    }
  }
  PNS_ENSURES(out.size() == size());
  return out;
}

}  // namespace pns::sweep
