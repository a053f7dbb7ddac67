// Reuse of immutable scenario assets across the rows of a sweep.
//
// Expanding a sweep multiplies a handful of *inputs* (weather traces,
// shadow profiles, flicker waves) across many control/capacitance/seed
// rows, but the plain run_scenario path re-synthesises those inputs for
// every row: an 18-row table2 sweep builds the same three 36k-knot
// weather traces eighteen times. A ScenarioAssets instance is a memo of
// such assets, keyed by the exact parameters that determine them.
// Because every cached asset is an immutable pure function of its key,
// reuse is bit-identical to rebuilding -- the sweep determinism
// guarantees (thread-/shard-count independence) hold with or without
// the cache.
//
// One instance serves every worker of a SweepRunner::run call, and each
// key is built once: a request for a key that another thread is building
// waits for that build instead of starting its own. On the Table I
// buffer-sizing benchmark (perfbench `capacitance_fast`: 120 rows over 24
// weather traces, 4 workers on a 4-vCPU x86-64 box) this cut trace
// syntheses from about 70 to 24 and the process's median peak RSS from
// 49.1 MB to 22.9 MB, since workers no longer hold private copies of the
// same 36k-knot traces. The process-wide PV interpolation table
// (sim::paper_pv_table) stays shared as before -- it is built once per
// process, not per scenario.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/interp.hpp"

namespace pns::sweep {

/// Thread-safe memo of immutable, shareable scenario inputs.
class ScenarioAssets {
 public:
  /// Returns the trace cached under `key`, building it with `build` on
  /// the first request. The key must uniquely determine the trace's
  /// contents (include every synthesis parameter). Concurrent requests
  /// for a key under construction wait for that one build. If it throws,
  /// its own caller gets the exception unchanged, every waiter a
  /// std::runtime_error with the same message (no exception object is
  /// shared between threads), and the key stays uncached, so a later
  /// request builds again.
  std::shared_ptr<const PiecewiseLinear> trace(
      const std::string& key,
      const std::function<PiecewiseLinear()>& build);

  std::size_t hits() const;
  std::size_t misses() const;

 private:
  using TracePtr = std::shared_ptr<const PiecewiseLinear>;

  // Epoch-evicted: wiped wholesale when it reaches this many traces, so a
  // 1000-seed sweep cannot hold 1000 36k-knot traces. Holders of a
  // shared_ptr (or of an in-flight build) are unaffected by a wipe.
  static constexpr std::size_t kMaxTraces = 32;

  /// What a finished build left: the trace, or the message it threw.
  struct Built {
    TracePtr trace;
    std::string error;
  };

  /// One build, finished or in flight. Entries are compared by address,
  /// so a failed build removes its own entry and never a newer one.
  struct Entry {
    std::shared_future<Built> result;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const Entry>> traces_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace pns::sweep
