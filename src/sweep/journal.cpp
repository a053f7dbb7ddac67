#include "sweep/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace pns::sweep {

namespace {

constexpr const char* kJournalKind = "pns-sweep-journal";
constexpr int kJournalVersion = 1;

std::string header_line(const JournalHeader& header) {
  std::ostringstream line;
  JsonWriter w(line, JsonStyle::kCompact);
  w.begin_object();
  w.kv("kind", kJournalKind);
  w.kv("version", kJournalVersion);
  w.kv("sweep", header.sweep);
  w.kv("total", static_cast<std::uint64_t>(header.total));
  w.end_object();
  return line.str();
}

std::string row_line(std::size_t index, const SummaryRow& row) {
  std::ostringstream line;
  JsonWriter w(line, JsonStyle::kCompact);
  w.begin_object();
  w.kv("kind", "row");
  w.kv("i", static_cast<std::uint64_t>(index));
  w.key("row");
  write_summary_row_json(w, row);
  w.end_object();
  return line.str();
}

// --- per-line CRC framing -----------------------------------------
//
// The checksum is spliced in as the final member of the (compact, one-
// object) line, so a framed line is still one valid JSON document:
//   {"kind":"row",...}  ->  {"kind":"row",...,"crc":"1a2b3c4d"}
// The CRC covers the *original* line bytes; the fixed-width hex keeps
// the suffix a constant 18 characters, which is what lets the reader
// recognise and strip it without parsing first.

constexpr std::string_view kCrcPrefix = ",\"crc\":\"";
constexpr std::size_t kCrcSuffixLen =
    kCrcPrefix.size() + 8 + 2;  // ,"crc":" + 8 hex + "}

std::string crc_framed(const std::string& line) {
  std::string out(line, 0, line.size() - 1);  // drop the closing '}'
  out += kCrcPrefix;
  out += crc32_hex(crc32(line));
  out += "\"}";
  return out;
}

enum class CrcCheck { kLegacy, kOk, kMismatch };

/// Detects and strips the crc member: on kOk `line` is rewritten to the
/// original (checksummed) bytes; on kLegacy it is left alone (journals
/// written before checksums existed); kMismatch means corruption.
CrcCheck strip_crc(std::string& line) {
  if (line.size() < kCrcSuffixLen + 2) return CrcCheck::kLegacy;
  const std::size_t at = line.size() - kCrcSuffixLen;
  if (line.compare(at, kCrcPrefix.size(), kCrcPrefix) != 0 ||
      line.compare(line.size() - 2, 2, "\"}") != 0)
    return CrcCheck::kLegacy;
  std::uint32_t stored = 0;
  for (std::size_t i = at + kCrcPrefix.size();
       i < at + kCrcPrefix.size() + 8; ++i) {
    const char c = line[i];
    std::uint32_t digit;
    if (c >= '0' && c <= '9')
      digit = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint32_t>(c - 'a' + 10);
    else
      return CrcCheck::kLegacy;  // not our suffix after all
    stored = (stored << 4) | digit;
  }
  std::string original = line.substr(0, at);
  original += '}';
  if (crc32(original) != stored) return CrcCheck::kMismatch;
  line = std::move(original);
  return CrcCheck::kOk;
}

/// fsyncs the directory containing `path`, so a rename into it is
/// durable. Best-effort on filesystems that refuse O_DIRECTORY fsync.
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

JournalWriter JournalWriter::create(
    const std::string& path, const JournalHeader& header,
    JournalDurability durability,
    std::shared_ptr<fault::FaultInjector> fault) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (!out) throw JournalError("cannot create journal: " + path);
  JournalWriter writer(out, durability, std::move(fault));
  writer.write_line(header_line(header));
  return writer;
}

JournalWriter JournalWriter::append_to(
    const std::string& path, JournalDurability durability,
    std::shared_ptr<fault::FaultInjector> fault) {
  // "a+b": appends always land at the end, and the last byte stays
  // readable -- a file killed mid-append ends without its newline.
  std::FILE* out = std::fopen(path.c_str(), "a+b");
  if (!out) throw JournalError("cannot open journal for append: " + path);
  JournalWriter writer(out, durability, std::move(fault));
  if (std::fseek(out, -1, SEEK_END) == 0) {
    // A torn trailing line: re-synchronise onto a fresh line, or the
    // first appended row would be glued onto the fragment and lost.
    writer.maybe_torn_ = std::fgetc(out) != '\n';
    std::fseek(out, 0, SEEK_END);  // a read must not run into a write
  }
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : out_(other.out_),
      durability_(other.durability_),
      fault_(std::move(other.fault_)),
      maybe_torn_(other.maybe_torn_) {
  other.out_ = nullptr;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (out_) std::fclose(out_);
    out_ = other.out_;
    durability_ = other.durability_;
    fault_ = std::move(other.fault_);
    maybe_torn_ = other.maybe_torn_;
    other.out_ = nullptr;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (out_) std::fclose(out_);
}

void JournalWriter::write_line(const std::string& line) {
  // One whole line per append, flushed, so a kill can only tear the line
  // being written -- which read_journal drops. With kFsync the line also
  // reaches the platter before append() returns: an acknowledged row
  // survives a machine crash, not just a process crash. Every IO step is
  // checked: an append that did not durably land must *fail loudly*
  // (throw JournalError to the caller), never pretend.
  const auto fail = [&](const char* what) -> void {
    maybe_torn_ = true;
    throw JournalError(std::string("journal ") + what + " failed: " +
                       std::strerror(errno));
  };
  if (maybe_torn_) {
    // The file may end mid-line after the previous failure; starting on
    // a fresh line turns that fragment into its own (dropped) line
    // instead of gluing it to this row.
    if (std::fputc('\n', out_) == EOF) fail("resync");
    maybe_torn_ = false;
  }
  const std::string framed = crc_framed(line);
  if (fault_) {
    const std::size_t torn = fault_->tear_append(framed.size());
    if (torn < framed.size()) {
      // Scheduled torn append: leave a partial line behind, exactly as
      // a crash mid-write would, then report the failure.
      std::fwrite(framed.data(), 1, torn, out_);
      std::fflush(out_);
      maybe_torn_ = true;
      throw JournalError("journal append torn (injected fault)");
    }
  }
  if (std::fwrite(framed.data(), 1, framed.size(), out_) != framed.size())
    fail("append");
  if (std::fputc('\n', out_) == EOF) fail("append");
  if (std::fflush(out_) != 0) fail("flush");
  if (durability_ == JournalDurability::kFsync) {
    if (fault_ && fault_->fail_fsync()) {
      errno = EIO;
      throw JournalError("journal fsync failed (injected fault)");
    }
    if (::fsync(::fileno(out_)) != 0) {
      // The bytes are written and flushed -- only durability is in
      // doubt -- so the line is complete and needs no resync.
      throw JournalError(std::string("journal fsync failed: ") +
                         std::strerror(errno));
    }
  }
}

void JournalWriter::append(std::size_t index, const SummaryRow& row) {
  write_line(row_line(index, row));
}

namespace {

/// The torn/corrupt-header diagnostic. A journal whose first line cannot
/// be trusted has no trustworthy identity at all, so nothing in it is
/// salvageable -- unlike a torn *row*, which costs one re-run scenario.
[[noreturn]] void throw_unrecoverable_header(const std::string& path,
                                             const char* why) {
  throw JournalError(path + ": journal header is " + why +
                     " -- journal unrecoverable; re-run the sweep or "
                     "restore the journal from a backup");
}

}  // namespace

JournalContents read_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JournalError("cannot open journal: " + path);

  JournalContents contents;
  std::string line;
  bool header_seen = false;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;  // resync padding after a torn append
    const CrcCheck crc = strip_crc(line);
    if (crc == CrcCheck::kMismatch) {
      // The line *looks* complete but its checksum disagrees: silent
      // corruption. Quarantine it -- the row is not folded in, so a
      // resume simply re-runs that scenario.
      if (!header_seen) throw_unrecoverable_header(path, "corrupt");
      ++contents.quarantined_lines;
      contents.notes.push_back(path + ":" + std::to_string(lineno) +
                               ": checksum mismatch -- line quarantined");
      continue;
    }
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const JsonError&) {
      // A torn line from a killed run -- the row was not durably
      // recorded, so skip and count it. Torn *first* line: the header
      // itself is gone and the journal with it.
      if (!header_seen) throw_unrecoverable_header(path, "torn");
      ++contents.dropped_lines;
      contents.notes.push_back(path + ":" + std::to_string(lineno) +
                               ": torn line dropped");
      continue;
    }
    try {
      const std::string kind = doc.at("kind").as_string();
      if (!header_seen) {
        if (kind != kJournalKind)
          throw JournalError(path + ": first line is not a journal header");
        if (doc.at("version").as_int64() != kJournalVersion)
          throw JournalError(path + ": unsupported journal version");
        contents.header.sweep = doc.at("sweep").as_string();
        contents.header.total =
            static_cast<std::size_t>(doc.at("total").as_uint64());
        header_seen = true;
        continue;
      }
      if (kind != "row") {
        ++contents.dropped_lines;
        contents.notes.push_back(path + ":" + std::to_string(lineno) +
                                 ": unknown line kind '" + kind +
                                 "' dropped");
        continue;
      }
      // A row outside the sweep cannot belong to it; folding it in would
      // let it stand in for a missing row when rows are counted.
      const auto index = static_cast<std::size_t>(doc.at("i").as_uint64());
      if (index >= contents.header.total) {
        ++contents.dropped_lines;
        contents.notes.push_back(
            path + ":" + std::to_string(lineno) + ": row index " +
            std::to_string(index) + " outside the sweep's " +
            std::to_string(contents.header.total) +
            " scenarios -- line dropped");
        continue;
      }
      // Later duplicates of an index win; a row appended twice is
      // identical anyway (deterministic simulation). A "wall_s" member
      // written by older builds is ignored.
      contents.rows.insert_or_assign(index,
                                     summary_row_from_json(doc.at("row")));
    } catch (const JsonError& e) {
      if (!header_seen)
        throw JournalError(path + ": malformed journal header (" +
                           e.what() + ")");
      ++contents.dropped_lines;
      contents.notes.push_back(path + ":" + std::to_string(lineno) +
                               ": malformed line dropped (" + e.what() +
                               ")");
    }
  }
  if (!header_seen)
    throw JournalError(path + ": empty journal (no header line)");
  return contents;
}

void write_canonical_journal(
    const std::string& path, const JournalHeader& header,
    const std::map<std::size_t, SummaryRow>& rows) {
  // Temp file, fsync, atomic rename, fsync of the directory: a crash at
  // any point leaves either the original or the complete replacement
  // durably under `path` -- never a torn file.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out)
      throw JournalError("cannot write canonical journal: " + tmp_path);
    // Index order: the bytes depend only on what the sweep computed,
    // never on which worker computed it or when.
    out << crc_framed(header_line(header)) << '\n';
    for (const auto& [index, row] : rows)
      out << crc_framed(row_line(index, row)) << '\n';
    out.flush();
    if (!out)
      throw JournalError("cannot write canonical journal: " + tmp_path);
  }
  // Reopen by path for the fsync: ofstream exposes no fd.
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    throw JournalError("cannot replace canonical journal " + path + ": " +
                       ec.message());
  }
  fsync_parent_dir(path);
}

std::string integrator_identity(const IntegratorSpec& integrator) {
  // A bare rk23 is the implicit integrator: it was the default when
  // identities were introduced, so journals written by default runs
  // before rk23pi took over resume under `--integrator rk23` and are
  // refused by a default run. Every other spec, the default included, is
  // spelled.
  if (integrator.kind == "rk23" && integrator.params.empty()) return "";
  return "&integrator=" + integrator.spec_string();
}

std::string pv_identity(ehsim::PvSource::Mode pv_mode) {
  return std::string("&pv=") +
         (pv_mode == ehsim::PvSource::Mode::kExact ? "exact" : "tabulated") +
         "&pv_solve=3";
}

std::string sweep_identity(const std::string& sweep_name, double minutes,
                           ehsim::PvSource::Mode pv_mode,
                           const std::vector<ControlSpec>& controls,
                           const std::vector<SourceSpec>& sources,
                           const IntegratorSpec& integrator,
                           const PlatformSpec& platform) {
  std::string id = sweep_name + "?minutes=" + shortest_double(minutes) +
                   pv_identity(pv_mode);
  for (const auto& c : controls) id += "&control=" + c.spec_string();
  for (const auto& s : sources) id += "&source=" + s.spec_string();
  id += integrator_identity(integrator);
  // The default "mono" platform is likewise omitted, keeping every
  // pre-existing journal identity valid; any other topology changes the
  // computed bytes, so its full spec string pins the identity.
  if (platform != PlatformSpec{}) id += "&platform=" + platform.spec_string();
  return id;
}

JournalContents read_journal(const std::string& path,
                             const JournalHeader& expected) {
  JournalContents contents = read_journal(path);
  if (contents.header != expected) {
    throw JournalError(
        path + ": journal belongs to sweep '" + contents.header.sweep +
        "' with " + std::to_string(contents.header.total) +
        " scenarios, expected '" + expected.sweep + "' with " +
        std::to_string(expected.total) +
        " -- refusing to mix sweeps (delete the journal to start over)");
  }
  return contents;
}

}  // namespace pns::sweep
