#include "sweep/assets.hpp"

#include <exception>
#include <optional>
#include <stdexcept>

namespace pns::sweep {

namespace {

/// The message of the exception being handled.
std::string current_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

std::shared_ptr<const PiecewiseLinear> ScenarioAssets::trace(
    const std::string& key,
    const std::function<PiecewiseLinear()>& build) {
  std::optional<std::promise<Built>> promise;  // set when we build
  std::shared_ptr<const Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = traces_.find(key); it != traces_.end()) {
      ++hits_;
      entry = it->second;
    } else {
      ++misses_;
      if (traces_.size() >= kMaxTraces) traces_.clear();
      promise.emplace();
      entry = std::make_shared<const Entry>(
          Entry{promise->get_future().share()});
      traces_.emplace(key, entry);
    }
  }
  if (promise) {
    // Build outside the lock: other keys proceed, this key's waiters
    // block in get() below.
    try {
      promise->set_value(
          Built{std::make_shared<const PiecewiseLinear>(build()), {}});
    } catch (...) {
      {
        // Uncache before waking the waiters, so any request that follows
        // their failure rebuilds. A wipe may already have dropped the
        // entry, or a rebuild replaced it; only our own is removed.
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = traces_.find(key);
        if (it != traces_.end() && it->second == entry) traces_.erase(it);
      }
      promise->set_value(Built{nullptr, current_message()});
      throw;
    }
  }
  const Built& built = entry->result.get();
  if (!built.trace) throw std::runtime_error(built.error);
  return built.trace;
}

std::size_t ScenarioAssets::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t ScenarioAssets::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace pns::sweep
