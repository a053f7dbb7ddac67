// Tests for the shared scenario-asset cache (sweep/assets.hpp): one build
// per key under contention, failure propagation to every waiter, and a
// SweepRunner whose workers share one cache publishing the same bytes as
// one that rebuilds every trace.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/assets.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "trace/weather.hpp"

namespace pns::sweep {
namespace {

constexpr int kThreads = 8;

/// Blocks until `assets` has counted `hits` cache hits, i.e. until that
/// many other requests found the key in flight; gives up after a few
/// seconds so a broken cache fails the assertions instead of hanging.
void wait_for_hits(const ScenarioAssets& assets, std::size_t hits) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (assets.hits() < hits && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

PiecewiseLinear ramp() {
  return PiecewiseLinear({0.0, 1.0, 2.0}, {0.0, 10.0, 20.0});
}

TEST(ScenarioAssets, ConcurrentRequestsForOneKeyBuildOnce) {
  ScenarioAssets assets;
  std::atomic<int> builds{0};
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const PiecewiseLinear>> got(kThreads);
  std::vector<std::thread> pool;
  for (int k = 0; k < kThreads; ++k) {
    pool.emplace_back([&, k] {
      start.arrive_and_wait();
      got[k] = assets.trace("one-key", [&] {
        ++builds;
        // Hold the build open until every other caller is waiting on it.
        wait_for_hits(assets, kThreads - 1);
        return ramp();
      });
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(assets.misses(), 1u);
  EXPECT_EQ(assets.hits(), static_cast<std::size_t>(kThreads - 1));
  ASSERT_NE(got[0], nullptr);
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
  EXPECT_EQ((*got[0])(1.5), 15.0);
}

TEST(ScenarioAssets, FailedBuildFailsEveryWaiterAndLeavesNoEntry) {
  ScenarioAssets assets;
  std::atomic<int> builds{0};
  std::latch start(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> pool;
  for (int k = 0; k < kThreads; ++k) {
    pool.emplace_back([&, k] {
      start.arrive_and_wait();
      try {
        assets.trace("bad-key", [&]() -> PiecewiseLinear {
          ++builds;
          wait_for_hits(assets, kThreads - 1);
          throw std::runtime_error("trace synthesis failed: bad-key");
        });
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& e : errors)
    EXPECT_EQ(e, "trace synthesis failed: bad-key");

  // Nothing was cached: the next request builds again.
  bool rebuilt = false;
  const auto trace = assets.trace("bad-key", [&] {
    rebuilt = true;
    return ramp();
  });
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(assets.misses(), 2u);
  EXPECT_EQ((*trace)(1.0), 10.0);
  // ...and that successful build is what later requests share.
  EXPECT_EQ(assets.trace("bad-key", [] { return PiecewiseLinear(); }).get(),
            trace.get());
}

// ------------------------------------------------ sharing across workers

std::atomic<int> g_counted_builds{0};

/// A "solar" look-alike whose weather-trace builds are counted: the same
/// trace synthesis and source assembly, keyed on the seed alone.
void register_counted_source() {
  static const bool registered = [] {
    SourceRegistry::instance().add(SourceEntry{
        "test-counted-solar",
        "solar weather whose trace syntheses are counted (tests only)",
        {},
        /*solar_defaults=*/true,
        /*uses_condition=*/false,
        [](const ScenarioSpec&) { return std::string("counted"); },
        [](const ScenarioSpec& spec, const ParamMap&,
           ScenarioAssets& assets) {
          auto trace = assets.trace(
              "counted/seed=" + std::to_string(spec.seed), [&] {
                ++g_counted_builds;
                return trace::synthesize_irradiance(
                    sim::paper_clear_sky(),
                    trace::WeatherCondition::kPartialSun,
                    spec.t_start - 60.0, spec.t_end + 60.0, spec.trace_dt_s,
                    spec.seed);
              });
          return pv_source_from_trace(std::move(trace), spec.pv_mode);
        },
    });
    return true;
  }();
  (void)registered;
}

/// Five controls x `seeds`: every weather trace is shared by five rows.
SweepSpec five_rows_per_trace(const std::string& source_kind) {
  SweepSpec sw;
  sw.base.t_start = 12.0 * 3600.0;
  sw.base.t_end = sw.base.t_start + 30.0;
  sw.base.record_series = false;
  sw.base.source = SourceSpec::parse(source_kind);
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("powersave"),
                 ControlSpec::linux_governor("ondemand"),
                 ControlSpec::linux_governor("conservative"),
                 ControlSpec::linux_governor("performance")};
  sw.seeds = {21, 22, 23};
  return sw;
}

std::string csv_of(const std::vector<SweepOutcome>& outcomes) {
  std::ostringstream os;
  Aggregator(outcomes).write_csv(os);
  return os.str();
}

std::vector<SweepOutcome> run_with(const SweepSpec& sw, bool reuse) {
  SweepRunnerOptions opt;
  opt.threads = 4;
  opt.reuse_assets = reuse;
  return SweepRunner(opt).run(sw);
}

TEST(SweepRunnerAssets, EachTraceSynthesisedOncePerRun) {
  register_counted_source();
  const SweepSpec sw = five_rows_per_trace("test-counted-solar");
  ASSERT_EQ(sw.expand().size(), 15u);

  g_counted_builds = 0;
  const auto shared = run_with(sw, /*reuse=*/true);
  EXPECT_EQ(g_counted_builds.load(), 3);  // one per seed, not per worker
  for (const auto& o : shared) ASSERT_TRUE(o.ok) << o.error;

  // A second run() starts from an empty cache.
  g_counted_builds = 0;
  run_with(sw, /*reuse=*/true);
  EXPECT_EQ(g_counted_builds.load(), 3);

  g_counted_builds = 0;
  const auto rebuilt = run_with(sw, /*reuse=*/false);
  EXPECT_EQ(g_counted_builds.load(), 15);  // one per row
  EXPECT_EQ(csv_of(shared), csv_of(rebuilt));
}

TEST(SweepRunnerAssets, SharedTracesPublishTheBytesOfRebuiltOnes) {
  const SweepSpec sw = five_rows_per_trace("solar");
  const auto shared = run_with(sw, /*reuse=*/true);
  const auto rebuilt = run_with(sw, /*reuse=*/false);
  ASSERT_EQ(shared.size(), 15u);
  for (const auto& o : shared) ASSERT_TRUE(o.ok) << o.error;
  EXPECT_EQ(csv_of(shared), csv_of(rebuilt));
}

}  // namespace
}  // namespace pns::sweep
