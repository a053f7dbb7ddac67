// Deterministic fault injection for the checkpoint journal's I/O seams.
//
// The journal promises that a sweep resumes to byte-identical output
// after torn writes and failed fsyncs. That promise is only testable if
// the hostile conditions themselves are reproducible, so faults are not
// sprinkled with rand(): a FaultSpec is a seeded *schedule*, parsed from
// the same spec-string grammar as every other knob
// (`fault:seed=7,torn_append=0.1,fsync_fail=2`), and a FaultInjector
// keeps each site's decisions independent of the other's: the fsync
// site counts calls, and the torn-append site draws from its own Rng
// stream derived from that seed. Each site's decision sequence is
// therefore a pure function of the seed -- independent of thread
// interleaving, wall clock, or how the other site is exercised -- so the
// same seed replays the same injection sequence, run after run, machine
// after machine.
//
// Consumer: sweep/journal.hpp JournalWriter -- torn appends, failed
// fsyncs (tests/sweep/test_checkpoint.cpp drives both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/params.hpp"
#include "util/rng.hpp"

namespace pns::fault {

/// Parsed fault schedule. Probabilities are per injection opportunity
/// (one journal append); counts are 1-based ordinals. Everything
/// defaults to "off", so an empty spec is a no-op injector.
struct FaultSpec {
  std::uint64_t seed = 1;        ///< master seed for every site stream
  std::uint64_t fsync_fail = 0;  ///< fail exactly the Nth fsync; 0 = off
  double torn_append = 0.0;      ///< P(tear a journal line mid-append)

  /// Parses "fault:key=value,..." (the prefix is optional: bare
  /// "key=value,..." and the lone word "fault" also parse). Throws
  /// ParamError naming the offending key and the accepted ones.
  static FaultSpec parse(const std::string& text);

  /// Round-trippable spec string ("fault:seed=7,torn_append=0.1").
  std::string spec_string() const;

  /// The accepted keys, for validation and diagnostics.
  static const std::vector<ParamInfo>& params();

  bool operator==(const FaultSpec&) const = default;
};

/// One injection site = one independent decision sequence.
enum class FaultSite {
  kFsync = 0,
  kTornAppend,
};
inline constexpr std::size_t kFaultSiteCount = 2;

/// Per-site counters: opportunities seen and faults actually injected.
struct SiteStats {
  std::uint64_t ops = 0;
  std::uint64_t hits = 0;
};

/// Draws scheduled faults at the journal seams. Thread-safe, and each
/// site's decision sequence stays deterministic regardless of how calls
/// interleave *across* sites. (Interleaving *within* one site is the
/// caller's to serialise -- JournalWriter already is.)
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }

  /// True: this fsync "fails" (it is the scheduled Nth one).
  bool fail_fsync();
  /// Bytes of an `n`-byte line append to actually write; < n means the
  /// append tears at that offset.
  std::size_t tear_append(std::size_t n);

  SiteStats stats(FaultSite site) const;
  /// Faults injected across all sites (quick "did anything fire?").
  std::uint64_t total_hits() const;

 private:
  FaultSpec spec_;
  mutable std::mutex mu_;
  Rng torn_stream_;
  SiteStats stats_[kFaultSiteCount];
  std::uint64_t fsync_count_ = 0;
};

/// Parses a fault spec into a shared injector (null for empty text),
/// the form JournalWriter takes.
std::shared_ptr<FaultInjector> make_injector(const std::string& spec_text);

}  // namespace pns::fault
