// Append-only checkpoint journal for sweep runs.
//
// A journal is a JSON Lines file: a header line identifying the sweep it
// belongs to, then one compact-JSON row per *completed* scenario, written
// and flushed as each scenario finishes. Because every line is appended
// whole and flushed, a killed run leaves at most one torn trailing line
// -- which the reader detects and drops -- so `pns_sweep --resume` (and
// SweepRunner::resume) continue from the last completed scenario instead
// of restarting an overnight sweep from zero.
//
// Entries carry the *global* spec index, so N shard workers
// (`pns_sweep <sweep> --shard k/N --journal part-k.jsonl`) each append a
// partial journal and `pns_sweep merge` folds them back into the
// canonical aggregate, byte-identical to a single-process run (numeric
// fields round-trip exactly via shortest_double; see aggregate.hpp).
//
// Format, one JSON document per line; every written line carries a
// trailing CRC-32 of the line *without* the crc member, so silent
// corruption (bit flips, partial sector overwrites) is detected and the
// row quarantined instead of folded into the aggregate. Lines without a
// crc member are legacy journals and still read fine:
//   {"kind":"pns-sweep-journal","version":1,"sweep":"table2","total":18,
//    "crc":"d41c87a0"}
//   {"kind":"row","i":0,"row":{...aggregate row object...},"crc":"..."}
//   {"kind":"row","i":7,"row":{...},"crc":"..."}
//
// A journal holds only what the sweep computed -- no timing, no worker
// identity -- so a 1-thread run's journal is byte-for-byte its canonical
// form (write_canonical_journal). Row lines written by older builds may
// carry an extra "wall_s" member; the reader ignores it. Any other line
// kind (e.g. an old compacted "rows" block) is dropped with a note and
// its scenarios re-run on resume.
#pragma once

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sweep/aggregate.hpp"

namespace pns::fault {
class FaultInjector;
}

namespace pns::sweep {

/// Identity of the sweep a journal belongs to. Resume and merge refuse a
/// journal whose header does not match the sweep being (re)run -- mixing
/// rows of two different sweeps would silently corrupt the aggregate.
struct JournalHeader {
  std::string sweep;      ///< sweep name (preset name, or caller-chosen)
  std::size_t total = 0;  ///< scenario count of the *full* (unsharded) sweep

  bool operator==(const JournalHeader&) const = default;
};

/// Everything read back from a journal file.
struct JournalContents {
  JournalHeader header;
  /// Completed rows keyed by global spec index.
  std::map<std::size_t, SummaryRow> rows;
  /// Torn or unparseable lines that were skipped (at most the trailing
  /// line after a kill; more indicates external corruption).
  std::size_t dropped_lines = 0;
  /// Lines that parsed but failed their CRC-32 check: complete-looking
  /// yet corrupt, so their rows were *not* folded in. A resume simply
  /// re-runs those scenarios.
  std::size_t quarantined_lines = 0;
  /// One human-readable diagnostic per dropped or quarantined line
  /// ("path:line: why"), so recovery logs exactly what was lost.
  std::vector<std::string> notes;
};

/// Error raised for a missing/unreadable journal, a malformed header, or
/// a header that does not match the expected sweep identity.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Journal durability level.
///
/// kFlush pushes every appended line into the OS (a crashed *process*
/// loses at most the line being written); kFsync additionally fsyncs the
/// file after each append, so even a machine crash or power cut cannot
/// lose a row that was appended. kFsync costs a disk round-trip per row,
/// so it is opt-in (`--fsync`).
enum class JournalDurability { kFlush, kFsync };

/// Appends journal lines to a file, flushing (and optionally fsyncing)
/// after every line so a kill loses at most the scenario in flight. Not
/// thread-safe: callers serialise appends (SweepRunner's on_outcome hook
/// already runs under a mutex).
class JournalWriter {
 public:
  /// Creates (truncating) `path` and writes the header line. The
  /// optional fault injector schedules torn appends and failed fsyncs
  /// (fault testing); null = none.
  static JournalWriter create(
      const std::string& path, const JournalHeader& header,
      JournalDurability durability = JournalDurability::kFlush,
      std::shared_ptr<fault::FaultInjector> fault = nullptr);

  /// Opens `path` for appending without touching existing contents. When
  /// the file ends mid-line (a run killed mid-append), the first append
  /// starts on a fresh line, leaving the fragment its own dropped line.
  /// The caller is expected to have validated the header via read_journal.
  static JournalWriter append_to(
      const std::string& path,
      JournalDurability durability = JournalDurability::kFlush,
      std::shared_ptr<fault::FaultInjector> fault = nullptr);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one completed row under its global spec index. Throws
  /// JournalError when the append did not durably complete
  /// (write/flush/fsync failure, injected or real); the writer stays
  /// usable -- the next append re-synchronises onto a fresh line, so a
  /// torn fragment becomes its own dropped line instead of corrupting the
  /// row that follows it.
  void append(std::size_t index, const SummaryRow& row);

 private:
  JournalWriter(std::FILE* out, JournalDurability durability,
                std::shared_ptr<fault::FaultInjector> fault)
      : out_(out), durability_(durability), fault_(std::move(fault)) {}

  void write_line(const std::string& line);

  std::FILE* out_ = nullptr;  ///< FILE* (not ofstream) so fsync can reach
                              ///< the fd behind the stream
  JournalDurability durability_ = JournalDurability::kFlush;
  std::shared_ptr<fault::FaultInjector> fault_;
  /// Set after a failed append: the file may end mid-line, so the next
  /// append starts with a '\n' to re-synchronise.
  bool maybe_torn_ = false;
};

/// Reads a journal back. Torn or unparseable lines, and row lines whose
/// index is not below the header's `total`, are dropped and counted;
/// lines whose CRC-32 check fails are quarantined (counted
/// separately, rows not folded in) -- both leave a per-line note in
/// `notes`. Later duplicates of an index win, so a row appended twice
/// (e.g. two resumes racing) stays consistent. Throws JournalError when
/// the file cannot be opened, or when the *header* line itself is torn
/// or corrupt: a journal without a trustworthy identity is
/// unrecoverable, and the error says to re-run or restore it.
JournalContents read_journal(const std::string& path);

/// Reads and validates against an expected identity in one step.
JournalContents read_journal(const std::string& path,
                             const JournalHeader& expected);

/// Writes `rows` as a *canonical* journal: the header line, then one row
/// line per entry in ascending index order. Because row JSON round-trips
/// bit-for-bit, the canonical form of a journal is a pure function of the
/// sweep -- a single-process run and an N-shard merge canonicalise to
/// the *same bytes*, which is how the sharded byte-identity contract is
/// enforced (`pns_sweep merge --journal`, tests/cli); a 1-thread run's
/// journal already is its canonical form. The rewrite goes through a
/// temp file + fsync + atomic rename, so a crash leaves either the old
/// file or the complete new one under `path`. Throws JournalError on IO
/// failure.
void write_canonical_journal(const std::string& path,
                             const JournalHeader& header,
                             const std::map<std::size_t, SummaryRow>& rows);

/// The integrator's part of a journal identity: "" for a bare "rk23" (the
/// implicit engine of every identity written while it was the default),
/// "&integrator=<spec string>" for every other spec, the default "rk23pi"
/// included. Shared by sweep_identity and the opt layer's journals.
std::string integrator_identity(const IntegratorSpec& integrator);

/// The PV part of a journal identity: the PV mode plus the version of the
/// PV solve that computed the rows, "&pv=<exact|tabulated>&pv_solve=3".
/// Version 2 seeded every Newton solve from the last one (ehsim::PvSource);
/// version 3 also stops Newton on its quadratic-convergence bound and
/// seeds it to second order (SolarCell::solve), which moves exact rows
/// and the PvTable nodes behind tabulated ones. A header with another
/// version, or without the token (rows from cold-start solves), fails the
/// header match, in both PV modes. Shared by sweep_identity and the opt
/// layer's journals.
std::string pv_identity(ehsim::PvSource::Mode pv_mode);

/// Canonical identity string of a sweep invocation, used as
/// JournalHeader::sweep by the pns_sweep CLI: the preset name plus every
/// knob that changes what the scenarios compute -- the window length, the
/// PV mode and solve version (pv_identity), the full spec strings of any --control/--source overrides,
/// the integrator (integrator_identity: a header without "&integrator="
/// always means rk23) and the platform (appended only when it differs
/// from the default "mono", which computes identically whether spelled or
/// omitted). A resume whose overrides differ therefore fails the header
/// match instead of silently mixing differently-parameterised rows.
std::string sweep_identity(const std::string& sweep_name, double minutes,
                           ehsim::PvSource::Mode pv_mode,
                           const std::vector<ControlSpec>& controls,
                           const std::vector<SourceSpec>& sources,
                           const IntegratorSpec& integrator = {},
                           const PlatformSpec& platform = {});

}  // namespace pns::sweep
