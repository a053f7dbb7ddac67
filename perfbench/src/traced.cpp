#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "governors/governor.hpp"
#include "sim/experiment.hpp"
#include "sweep/assets.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "util/crc32.hpp"

namespace perfbench {

using namespace pns;

namespace {

/// Spans and counts of the rows one worker ran (summed across workers).
struct Layers {
  double row_setup_s = 0.0;  ///< sweep::resolve_control + make_sim_config
  double synth_s = 0.0;      ///< sweep::resolve_source
  double run_s = 0.0;        ///< sim::run_pv_control
  double pv_s = 0.0;         ///< inside the PV source, within run_s
  double decide_s = 0.0;     ///< inside the governor, within run_s
  std::uint64_t synth_calls = 0;
  std::uint64_t pv_calls = 0;      ///< current() calls
  std::uint64_t pv_spans = 0;      ///< every timed PV source call
  std::uint64_t decide_calls = 0;  ///< decide() calls
  std::uint64_t decide_spans = 0;  ///< every timed governor call
  ehsim::PvSolveStats pv;
  ctl::ControllerStats controller;
  double simulated_s = 0.0;
  std::uint64_t asset_hits = 0;
  std::uint64_t asset_misses = 0;

  Layers& operator+=(const Layers& o) {
    row_setup_s += o.row_setup_s;
    synth_s += o.synth_s;
    run_s += o.run_s;
    pv_s += o.pv_s;
    decide_s += o.decide_s;
    synth_calls += o.synth_calls;
    pv_calls += o.pv_calls;
    pv_spans += o.pv_spans;
    decide_calls += o.decide_calls;
    decide_spans += o.decide_spans;
    pv += o.pv;
    controller.interrupts += o.controller.interrupts;
    controller.threshold_moves += o.controller.threshold_moves;
    controller.dvfs_steps += o.controller.dvfs_steps;
    controller.hotplug_steps += o.controller.hotplug_steps;
    simulated_s += o.simulated_s;
    asset_hits += o.asset_hits;
    asset_misses += o.asset_misses;
    return *this;
  }
};

/// Forwards every CurrentSource virtual to the resolved source, timing
/// each call into Layers::pv_s.
class TimedSource final : public ehsim::CurrentSource {
 public:
  TimedSource(const ehsim::CurrentSource& inner, Layers& layers)
      : inner_(inner), layers_(layers) {}

  double current(double v, double t) const override {
    const auto t0 = Clock::now();
    const double i = inner_.current(v, t);
    layers_.pv_s += seconds_between(t0, Clock::now());
    ++layers_.pv_calls;
    ++layers_.pv_spans;
    return i;
  }
  double available_power(double t) const override {
    const auto t0 = Clock::now();
    const double p = inner_.available_power(t);
    layers_.pv_s += seconds_between(t0, Clock::now());
    ++layers_.pv_spans;
    return p;
  }
  double constant_until(double t) const override {
    const auto t0 = Clock::now();
    const double until = inner_.constant_until(t);
    layers_.pv_s += seconds_between(t0, Clock::now());
    ++layers_.pv_spans;
    return until;
  }

 private:
  const ehsim::CurrentSource& inner_;
  Layers& layers_;
};

/// Forwards every Governor virtual to the resolved governor, timing
/// decide() and hold_until() into Layers::decide_s.
class TimedGovernor final : public gov::Governor {
 public:
  TimedGovernor(std::unique_ptr<gov::Governor> inner,
                const soc::Platform& platform, Layers& layers)
      : gov::Governor(platform), inner_(std::move(inner)), layers_(layers) {}

  const char* name() const override { return inner_->name(); }
  soc::OperatingPoint decide(const gov::GovernorContext& ctx) override {
    const auto t0 = Clock::now();
    const soc::OperatingPoint opp = inner_->decide(ctx);
    layers_.decide_s += seconds_between(t0, Clock::now());
    ++layers_.decide_calls;
    ++layers_.decide_spans;
    return opp;
  }
  double hold_until(const gov::GovernorContext& ctx) const override {
    const auto t0 = Clock::now();
    const double until = inner_->hold_until(ctx);
    layers_.decide_s += seconds_between(t0, Clock::now());
    ++layers_.decide_spans;
    return until;
  }
  double sampling_period() const override { return inner_->sampling_period(); }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<gov::Governor> inner_;
  Layers& layers_;
};

/// sweep::run_scenario's assembly, one public call at a time, with the
/// governor and the source wrapped.
sim::SimResult run_row_traced(const sweep::ScenarioSpec& spec,
                              sweep::ScenarioAssets& assets, Layers& layers) {
  if (spec.platform_spec != sweep::PlatformSpec{})
    throw std::runtime_error("traced rows support the default platform only");
  const sweep::SourceEntry& entry =
      sweep::SourceRegistry::instance().require(spec.source.kind);
  const auto t0 = Clock::now();
  sim::ControlSelection control = sweep::resolve_control(spec.control, spec);
  if (control.governor)
    control.governor = std::make_unique<TimedGovernor>(
        std::move(control.governor), spec.platform, layers);
  sim::SimConfig config = sweep::make_sim_config(spec);
  const auto t1 = Clock::now();
  const ehsim::PvSource source = sweep::resolve_source(spec, assets);
  const auto t2 = Clock::now();
  const TimedSource timed(source, layers);
  sim::SimResult result =
      sim::run_pv_control(spec.platform, timed, std::move(control),
                          std::move(config), entry.solar_defaults);
  const auto t3 = Clock::now();

  layers.row_setup_s += seconds_between(t0, t1);
  layers.synth_s += seconds_between(t1, t2);
  layers.run_s += seconds_between(t2, t3);
  ++layers.synth_calls;
  layers.pv += source.solve_stats();
  layers.controller.interrupts += result.controller.interrupts;
  layers.controller.threshold_moves += result.controller.threshold_moves;
  layers.controller.dvfs_steps += result.controller.dvfs_steps;
  layers.controller.hotplug_steps += result.controller.hotplug_steps;
  layers.simulated_s += spec.duration();
  return result;
}

struct Pass {
  std::vector<sweep::SweepOutcome> outcomes;
  Layers layers;
  double cpu_s = 0.0;
};

/// Drives the rows through run_row_traced on `threads` workers, one
/// ScenarioAssets each.
Pass drive_traced(const std::vector<sweep::ScenarioSpec>& specs,
                  unsigned threads) {
  Pass pass;
  pass.outcomes.resize(specs.size());
  std::atomic<std::size_t> next{0};
  std::mutex layers_mutex;
  auto worker = [&] {
    sweep::ScenarioAssets assets;
    Layers local;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) break;
      sweep::SweepOutcome& out = pass.outcomes[i];
      out.spec = specs[i];
      const auto t0 = Clock::now();
      try {
        out.result = run_row_traced(specs[i], assets, local);
        out.ok = true;
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
      out.wall_s = seconds_between(t0, Clock::now());
    }
    local.asset_hits = assets.hits();
    local.asset_misses = assets.misses();
    const std::lock_guard<std::mutex> lock(layers_mutex);
    pass.layers += local;
  };
  const unsigned n = static_cast<unsigned>(
      std::clamp<std::size_t>(specs.size(), 1, std::max(1u, threads)));
  const double cpu0 = process_cpu_s();
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  pass.cpu_s = process_cpu_s() - cpu0;
  return pass;
}

/// The canonical published bytes of a set of rows.
std::string published(const Prepared& p, const sweep::Aggregator& agg) {
  return p.studies.empty() ? sweep_bytes(agg) : grid_bytes(p, agg.rows());
}

std::uint64_t count_lines(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<std::uint64_t>(
      std::count(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>(), '\n'));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The cost of one timed span around an empty call, per span: `inside`
/// is what the span itself reads (the tail of the first clock read and
/// the head of the second), `outside` what the caller's span reads on
/// top. Median of a few rounds.
struct SpanCost {
  double inside = 0.0;
  double outside = 0.0;
};

SpanCost calibrate_span() {
  constexpr int kRounds = 5;
  constexpr int kSpans = 200000;
  std::vector<double> inside, outside;
  for (int r = 0; r < kRounds; ++r) {
    double sum = 0.0;
    const auto a = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      const auto t0 = Clock::now();
      sum += seconds_between(t0, Clock::now());
    }
    const double total = seconds_between(a, Clock::now());
    inside.push_back(sum / kSpans);
    outside.push_back((total - sum) / kSpans);
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return {median(inside), median(outside)};
}

}  // namespace

void run_traced(const Options& opt, const Prepared& p, Report& report) {
  const std::vector<sweep::ScenarioSpec> grid =
      p.studies.empty() ? std::vector<sweep::ScenarioSpec>{} : grid_rows(p);
  const std::vector<sweep::ScenarioSpec>& specs =
      p.studies.empty() ? p.specs : grid;
  const SpanCost span_cost = calibrate_span();

  // Runner pass: the sweep layer observed only through on_outcome.
  sweep::SweepRunnerOptions ro;
  ro.threads = opt.threads;
  std::vector<double> done_at(specs.size(), 0.0);
  const auto run0 = Clock::now();
  ro.on_outcome = [&](std::size_t i, const sweep::SweepOutcome&) {
    done_at[i] = seconds_between(run0, Clock::now());
  };
  const sweep::SweepRunner runner(ro);
  const double cpu0 = process_cpu_s();
  const std::vector<sweep::SweepOutcome> outcomes = runner.run(specs);
  const double runner_wall = seconds_between(run0, Clock::now());
  const double runner_cpu = process_cpu_s() - cpu0;

  const auto agg0 = Clock::now();
  const sweep::Aggregator agg(outcomes);
  const bool wrote =
      agg.write_csv_file((opt.out_dir / "runner_pass.csv").string()) &&
      agg.write_json_file((opt.out_dir / "runner_pass.json").string());
  const double aggregate_s = seconds_between(agg0, Clock::now());
  report.check({"runner_pass.written", wrote, ""});

  double row_wall_max = 0.0;
  double row_wall_sum = 0.0;
  for (const sweep::SweepOutcome& o : outcomes) {
    row_wall_max = std::max(row_wall_max, o.wall_s);
    row_wall_sum += o.wall_s;
  }
  const double span = *std::max_element(done_at.begin(), done_at.end());
  const unsigned workers = runner.effective_threads(specs.size());

  // Each study's journalled search, then its resume pass over the
  // complete journal.
  double search_s = 0.0, resume_s = 0.0, reused_frac = 0.0;
  std::uint64_t journal_bytes = 0, evaluations = 0, appended = 0;
  if (!p.studies.empty()) {
    std::string search_bytes, resume_bytes;
    for (const GridStudy& study : p.studies) {
      std::filesystem::remove(study.journal);
      const auto s0 = Clock::now();
      const opt::SearchResult first = opt::grid_search(study.objective, p.grid);
      const auto s1 = Clock::now();
      const std::uint64_t lines = count_lines(study.journal);
      journal_bytes += std::filesystem::file_size(study.journal);
      const opt::SearchResult again = opt::grid_search(study.objective, p.grid);
      const auto s2 = Clock::now();
      search_s += seconds_between(s0, s1);
      resume_s += seconds_between(s1, s2);
      evaluations += first.evaluated.size();
      appended += count_lines(study.journal) - lines;
      search_bytes += grid_bytes(first);
      resume_bytes += grid_bytes(again);
      if (!opt.minutes) report.claim(section3_claim(opt, study, again));
    }
    reused_frac = 1.0 - static_cast<double>(appended) /
                            static_cast<double>(specs.size());
    report.check({"param_grid.resume_reuses_every_row", appended == 0,
                  std::to_string(appended) + " rows re-run"});
    report.check({"param_grid.resume_identical",
                  resume_bytes == search_bytes, ""});
    report.check({"param_grid.search_matches_runner_pass",
                  published(p, agg) == search_bytes, ""});
  }

  const Pass traced = drive_traced(specs, opt.threads);
  const sweep::Aggregator traced_agg(traced.outcomes);
  report.check({"traced_rows_match_runner_pass",
                sweep_bytes(traced_agg) == sweep_bytes(agg), ""});
  if (opt.workload == Workload::kTable2 && !opt.minutes)
    report.claim(table2_claim(traced_agg.rows()));
  // Runner and traced passes, plus the journalled searches.
  report.rows = (p.studies.empty() ? 2 : 3) * specs.size();
  report.failed_rows = agg.failed_count() + traced_agg.failed_count();
  report.digest = crc32_hex(crc32(published(p, traced_agg)));

  // Each span's own clock cost comes off the layer it times; the part
  // that lands outside it comes off sim.self_s.
  const Layers& l = traced.layers;
  const auto spans = [](std::uint64_t n) { return static_cast<double>(n); };
  const double pv_s = l.pv_s - spans(l.pv_spans) * span_cost.inside;
  const double decide_s =
      l.decide_s - spans(l.decide_spans) * span_cost.inside;
  const double sim_self = l.run_s - l.pv_s - l.decide_s -
                          spans(l.pv_spans + l.decide_spans) *
                              span_cost.outside;
  report.metric("sweep.row_wall_max_s", row_wall_max, "s");
  report.metric("sweep.idle_frac",
                1.0 - ratio(row_wall_sum, workers * span), "fraction");
  report.metric("sweep.parallelism", ratio(runner_cpu, runner_wall), "ratio");
  report.metric("sweep.aggregate_s", aggregate_s, "s");
  report.metric("sweep.row_setup_s", l.row_setup_s, "s");
  report.metric("sweep.journal_bytes", static_cast<double>(journal_bytes),
                "bytes");
  report.metric("sweep.resume_s", resume_s, "s");
  report.metric("sweep.resume_reused_frac", reused_frac, "fraction");
  report.metric("trace.synth_calls", static_cast<double>(l.synth_calls),
                "count");
  report.metric("trace.synth_s", l.synth_s, "s");
  report.metric("trace.asset_hit_rate",
                ratio(static_cast<double>(l.asset_hits),
                      static_cast<double>(l.asset_hits + l.asset_misses)),
                "fraction");
  report.metric("ehsim.pv.calls", static_cast<double>(l.pv_calls), "count");
  report.metric("ehsim.pv.s", pv_s, "s");
  report.metric("ehsim.pv.newton_solves",
                static_cast<double>(l.pv.newton_solves), "count");
  report.metric("ehsim.pv.iters_per_solve",
                ratio(static_cast<double>(l.pv.newton_iterations),
                      static_cast<double>(l.pv.newton_solves)),
                "iter/solve");
  report.metric("ehsim.pv.memo_hit_rate",
                ratio(static_cast<double>(l.pv.memo_hits),
                      static_cast<double>(l.pv.calls)),
                "fraction");
  report.metric("ehsim.pv.table_hit_rate",
                ratio(static_cast<double>(l.pv.table_hits),
                      static_cast<double>(l.pv.calls)),
                "fraction");
  report.metric("governors.decide_calls", static_cast<double>(l.decide_calls),
                "count");
  report.metric("governors.decide_s", decide_s, "s");
  report.metric("core.interrupts",
                static_cast<double>(l.controller.interrupts), "count");
  report.metric("core.threshold_moves",
                static_cast<double>(l.controller.threshold_moves), "count");
  report.metric("core.dvfs_steps",
                static_cast<double>(l.controller.dvfs_steps), "count");
  report.metric("core.hotplug_steps",
                static_cast<double>(l.controller.hotplug_steps), "count");
  report.metric("sim.run_s", l.run_s, "s");
  report.metric("sim.self_s", sim_self, "s");
  report.metric("sim.sim_s_per_host_s", ratio(l.simulated_s, l.run_s), "s/s");
  report.metric("opt.evaluations", static_cast<double>(evaluations), "count");
  report.metric("opt.search_s", search_s, "s");
  report.metric("bench.span_cost_s", span_cost.inside + span_cost.outside,
                "s");
  report.metric("bench.trace_overhead_s", traced.cpu_s - runner_cpu, "s");
  report.metric("bench.unaccounted_s",
                traced.cpu_s - (l.row_setup_s + l.synth_s + pv_s + decide_s +
                                sim_self),
                "s");
}

}  // namespace perfbench
