#include "util/fault.hpp"

namespace pns::fault {

namespace {

/// Golden-ratio offset of the torn-append stream from the master seed
/// (Rng's SplitMix64 expansion decorrelates nearby seeds). The multiplier
/// must not change: every seeded tear schedule, and so every recorded
/// fault spec, depends on it.
constexpr std::uint64_t kTornStreamOffset = 6 * 0x9E3779B97F4A7C15ull;

/// Validates a probability knob (ParamError keeps the CLI diagnostics
/// convention: name the key, show the offending value).
double checked_probability(const ParamMap& params, const char* key) {
  const double p = params.get_double(key, 0.0);
  if (p < 0.0 || p > 1.0)
    throw ParamError(std::string("fault spec: '") + key + "' must be a " +
                     "probability in [0,1], got " + *params.find(key));
  return p;
}

}  // namespace

const std::vector<ParamInfo>& FaultSpec::params() {
  static const std::vector<ParamInfo> infos = {
      {"seed", "uint", "1", "master seed; same seed = same injection "
                            "sequence"},
      {"fsync_fail", "uint", "0", "fail exactly the Nth fsync (1-based)"},
      {"torn_append", "double", "0",
       "P(tear a journal line mid-append)"},
  };
  return infos;
}

FaultSpec FaultSpec::parse(const std::string& text) {
  std::string body = text;
  if (body == "fault")
    body.clear();
  else if (body.rfind("fault:", 0) == 0)
    body = body.substr(6);
  const ParamMap map = ParamMap::parse(body);
  map.validate_keys(params(), "fault spec");
  map.validate_types(params());

  FaultSpec spec;
  spec.seed = map.get_uint("seed", spec.seed);
  spec.fsync_fail = map.get_uint("fsync_fail", 0);
  spec.torn_append = checked_probability(map, "torn_append");
  return spec;
}

std::string FaultSpec::spec_string() const {
  ParamMap map;
  map.set_uint("seed", seed);
  if (fsync_fail != 0) map.set_uint("fsync_fail", fsync_fail);
  if (torn_append > 0.0) map.set_double("torn_append", torn_append);
  return "fault:" + map.serialize();
}

FaultInjector::FaultInjector(FaultSpec spec)
    : spec_(spec), torn_stream_(spec_.seed + kTornStreamOffset) {}

bool FaultInjector::fail_fsync() {
  std::lock_guard<std::mutex> lock(mu_);
  SiteStats& s = stats_[static_cast<std::size_t>(FaultSite::kFsync)];
  ++s.ops;
  ++fsync_count_;
  const bool hit =
      spec_.fsync_fail != 0 && fsync_count_ == spec_.fsync_fail;
  if (hit) ++s.hits;
  return hit;
}

std::size_t FaultInjector::tear_append(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteStats& s = stats_[static_cast<std::size_t>(FaultSite::kTornAppend)];
  ++s.ops;
  if (spec_.torn_append <= 0.0 || !torn_stream_.bernoulli(spec_.torn_append))
    return n;
  ++s.hits;
  if (n == 0) return n;
  return static_cast<std::size_t>(torn_stream_.uniform_index(n));  // 0..n-1
}

SiteStats FaultInjector::stats(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_[static_cast<std::size_t>(site)];
}

std::uint64_t FaultInjector::total_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const SiteStats& s : stats_) total += s.hits;
  return total;
}

std::shared_ptr<FaultInjector> make_injector(
    const std::string& spec_text) {
  if (spec_text.empty()) return nullptr;
  return std::make_shared<FaultInjector>(FaultSpec::parse(spec_text));
}

}  // namespace pns::fault
