#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "sweep/assets.hpp"
#include "util/contracts.hpp"

namespace pns::sweep {

SweepRunner::SweepRunner(SweepRunnerOptions options)
    : options_(std::move(options)) {}

unsigned SweepRunner::effective_threads(std::size_t n) const {
  unsigned t = options_.threads;
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(t, std::max<std::size_t>(n, 1)));
}

ShardRange shard_range(std::size_t total, std::size_t k, std::size_t n) {
  PNS_EXPECTS(n > 0);
  PNS_EXPECTS(k < n);
  // floor(k*total/n) boundaries: contiguous, sizes differ by at most one,
  // and consecutive shards tile [0, total) exactly.
  return ShardRange{k * total / n, (k + 1) * total / n};
}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs) const {
  std::vector<SweepOutcome> outcomes(specs.size());
  if (specs.empty()) return outcomes;

  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  // guarded by progress_mutex
  std::mutex progress_mutex;

  // One asset cache for all workers: each distinct weather trace is
  // synthesised once per run and shared by every row that uses it
  // (results are bit-identical, so the thread-count independence
  // guarantee is unaffected).
  ScenarioAssets assets;

  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      SweepOutcome& out = outcomes[i];
      out.spec = specs[i];
      const auto t0 = std::chrono::steady_clock::now();
      try {
        out.result = run_scenario(specs[i], assets);
        out.ok = true;
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
      out.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
      if (options_.progress || options_.on_outcome) {
        // Count, journal and report under one lock so completion counts
        // reach the callbacks in order and appends never interleave.
        std::lock_guard<std::mutex> lock(progress_mutex);
        if (options_.on_outcome) options_.on_outcome(i, out);
        if (options_.progress) options_.progress(++done, specs.size());
      }
    }
  };

  const unsigned n_threads = effective_threads(specs.size());
  if (n_threads <= 1) {
    worker();
    return outcomes;
  }
  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  return outcomes;
}

std::vector<SweepOutcome> SweepRunner::run(const SweepSpec& sweep) const {
  return run(sweep.expand());
}

ResumeReport SweepRunner::run_checkpointed(
    const std::vector<ScenarioSpec>& specs, const std::string& journal_path,
    const std::string& sweep_name, ShardRange range) const {
  PNS_EXPECTS(range.begin <= range.end && range.end <= specs.size());
  const JournalHeader header{sweep_name, specs.size()};
  ResumeReport report;

  // Load whatever a previous (possibly killed) invocation recorded.
  std::map<std::size_t, SummaryRow> done;
  const bool journalled = !journal_path.empty();
  const bool journal_exists =
      journalled && std::filesystem::exists(journal_path);
  if (journal_exists) {
    JournalContents contents = read_journal(journal_path, header);
    done = std::move(contents.rows);
    report.notes = std::move(contents.notes);
    // A journaled row must describe the spec at its index; anything else
    // means the journal belongs to a differently parameterised sweep
    // (same name/size, different axes), which would corrupt the merge.
    for (const auto& [i, row] : done) {
      if (i >= specs.size() || row.label != specs[i].label)
        throw JournalError(journal_path +
                           ": journaled row does not match scenario " +
                           std::to_string(i) +
                           " -- delete the journal to start over");
    }
  }

  // Gather the shard's pending specs (journal misses), keeping their
  // global indices for the journal lines and the final spec-order stitch.
  std::vector<ScenarioSpec> pending;
  std::vector<std::size_t> global_index;
  for (std::size_t i = range.begin; i < range.end; ++i) {
    if (!done.count(i)) {
      pending.push_back(specs[i]);
      global_index.push_back(i);
    }
  }

  std::optional<JournalWriter> journal;
  if (journalled) {
    journal = journal_exists
                  ? JournalWriter::append_to(journal_path,
                                             options_.journal_durability)
                  : JournalWriter::create(journal_path, header,
                                          options_.journal_durability);
  }

  report.executed = pending.size();

  // Fresh rows land in the journal as they complete (crash durability)
  // and in `fresh` for the stitch below. on_outcome already runs under
  // the runner's completion mutex, so the writer needs no extra locking.
  std::vector<SummaryRow> fresh(pending.size());
  SweepRunner sub = *this;
  sub.options_.on_outcome = [&](std::size_t pi, const SweepOutcome& out) {
    fresh[pi] = summarize(out);
    if (journal) journal->append(global_index[pi], fresh[pi]);
    if (options_.on_outcome) options_.on_outcome(global_index[pi], out);
  };
  sub.run(pending);

  report.rows.reserve(range.size());
  std::size_t next_fresh = 0;
  for (std::size_t i = range.begin; i < range.end; ++i) {
    auto it = done.find(i);
    if (it != done.end()) {
      report.rows.push_back(std::move(it->second));
      ++report.reused;
    } else {
      report.rows.push_back(std::move(fresh[next_fresh++]));
    }
    if (!report.rows.back().ok) ++report.failed;
  }
  PNS_ENSURES(next_fresh == fresh.size());
  return report;
}

ResumeReport SweepRunner::resume(const std::vector<ScenarioSpec>& specs,
                                 const std::string& journal_path,
                                 const std::string& sweep_name) const {
  return run_checkpointed(specs, journal_path, sweep_name,
                          ShardRange{0, specs.size()});
}

}  // namespace pns::sweep
