// Seeded mutation test of the journal reader.
//
// A real `quick` journal is damaged the ways a file on disk gets
// damaged -- byte flips, truncation, a duplicated line, an inserted
// garbage line, an edited header -- and read back. Every read must either
// return a subset of the clean rows (bit for bit) with one note per bad
// or out-of-range line, or throw JournalError with a message; never crash
// and never fold a damaged row in. The ASan+UBSan and TSan jobs run this suite, so an
// out-of-bounds read or undefined behaviour in the reader fails there.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/aggregate.hpp"
#include "sweep/journal.hpp"
#include "sweep/presets.hpp"
#include "sweep/runner.hpp"
#include "util/rng.hpp"

#include "../support/text_file.hpp"

namespace pns::sweep {
namespace {

namespace fs = std::filesystem;

constexpr int kCases = 500;
/// Every kResumeEvery-th readable case with an intact header is also
/// resumed, which must publish the clean run's bytes.
constexpr int kResumeEvery = 10;

using pns::test_support::join_lines;
using pns::test_support::read_file;
using pns::test_support::split_lines;
using pns::test_support::write_file;

std::string csv_of(const std::vector<SummaryRow>& rows) {
  std::ostringstream os;
  Aggregator(rows).write_csv(os);
  return os.str();
}

std::string json_of(const SummaryRow& row) {
  std::ostringstream os;
  Aggregator({row}).write_json(os);
  return os.str();
}

enum class Mutation { kByteFlip, kTruncate, kDuplicateLine, kGarbageLine,
                      kHeaderEdit };

/// Replaces the first `from` in `s` with `to` (no-op when absent).
void replace_first(std::string& s, const std::string& from,
                   const std::string& to) {
  const std::size_t at = s.find(from);
  if (at != std::string::npos) s.replace(at, from.size(), to);
}

/// Drops the trailing crc member, turning a framed line into a legacy
/// (unchecksummed) one so an edit reaches the parser instead of the CRC.
std::string without_crc(const std::string& line) {
  const std::size_t at = line.rfind(",\"crc\":\"");
  return at == std::string::npos ? line : line.substr(0, at) + "}";
}

/// Applies one mutation of `kind` to the journal bytes.
void mutate(std::string& bytes, Mutation kind, Rng& rng) {
  if (bytes.empty()) return;
  switch (kind) {
    case Mutation::kByteFlip: {
      const std::size_t at = rng.uniform_index(bytes.size());
      const auto delta = static_cast<char>(1 + rng.uniform_index(255));
      bytes[at] = static_cast<char>(bytes[at] ^ delta);
      return;
    }
    case Mutation::kTruncate:
      bytes.resize(rng.uniform_index(bytes.size()));
      return;
    case Mutation::kDuplicateLine: {
      auto lines = split_lines(bytes);
      if (lines.empty()) return;
      const std::size_t from = rng.uniform_index(lines.size());
      const std::size_t to = rng.uniform_index(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to),
                   lines[from]);
      bytes = join_lines(lines);
      return;
    }
    case Mutation::kGarbageLine: {
      auto lines = split_lines(bytes);
      std::string garbage(1 + rng.uniform_index(120), ' ');
      for (char& c : garbage) {
        // Mostly JSON punctuation and digits, so some garbage gets deep
        // into the parser before failing.
        static const std::string alphabet =
            "{}[]\":,0123456789.-eE truefalsenull\\kindrowcrc";
        c = alphabet[rng.uniform_index(alphabet.size())];
      }
      const std::size_t at = rng.uniform_index(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), garbage);
      bytes = join_lines(lines);
      return;
    }
    case Mutation::kHeaderEdit: {
      auto lines = split_lines(bytes);
      if (lines.empty()) return;
      std::string& header = lines[0];
      switch (rng.uniform_index(6)) {
        case 0:  // checksummed edit: the header no longer matches its CRC
          replace_first(header, "\"total\":12", "\"total\":13");
          break;
        case 1:  // legacy header claiming a different sweep size
          header = without_crc(header);
          replace_first(header, "\"total\":12", "\"total\":7");
          break;
        case 2:  // legacy header of a future format version
          header = without_crc(header);
          replace_first(header, "\"version\":1", "\"version\":2");
          break;
        case 3:  // legacy header of another sweep
          header = without_crc(header);
          replace_first(header, "\"sweep\":\"quick", "\"sweep\":\"table2");
          break;
        case 4:  // a header whose kind is not a journal's
          header = without_crc(header);
          replace_first(header, "pns-sweep-journal", "row");
          break;
        default:  // no header at all
          lines.erase(lines.begin());
          break;
      }
      bytes = join_lines(lines);
      return;
    }
  }
}

/// The line number a note names: notes read "path:LINE: why".
std::size_t note_line(const std::string& note, const std::string& path) {
  EXPECT_EQ(note.rfind(path + ":", 0), 0u) << note;
  return std::stoul(note.substr(path.size() + 1));
}

/// The clean `quick` journal every mutant starts from, written once by
/// a 1-thread run (so its lines are in index order); removed at exit.
struct CleanJournal {
  std::vector<ScenarioSpec> specs =
      find_sweep_preset("quick")->make(60.0).expand();
  std::string identity =
      sweep_identity("quick", 60.0, ehsim::PvSource::Mode::kExact, {}, {});
  std::string path =
      (fs::temp_directory_path() /
       ("pns-mutation-clean-" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  std::string csv;

  CleanJournal() {
    fs::remove(path);
    SweepRunnerOptions opt;
    opt.threads = 1;
    csv = csv_of(SweepRunner(opt).resume(specs, path, identity).rows);
  }
  ~CleanJournal() { fs::remove(path); }
};

const CleanJournal& clean_journal() {
  static const CleanJournal journal;
  return journal;
}

TEST(JournalMutation, CleanJournalReadsEveryRowWithoutNotes) {
  const CleanJournal& cj = clean_journal();
  const JournalContents clean = read_journal(cj.path);
  EXPECT_EQ(clean.header, (JournalHeader{cj.identity, cj.specs.size()}));
  EXPECT_EQ(clean.rows.size(), cj.specs.size());
  EXPECT_EQ(clean.dropped_lines, 0u);
  EXPECT_EQ(clean.quarantined_lines, 0u);
  EXPECT_TRUE(clean.notes.empty());
}

TEST(JournalMutation, EveryMutantReadsASubsetWithNotesOrThrows) {
  const CleanJournal& cj = clean_journal();
  const std::string clean_bytes = read_file(cj.path);
  const JournalContents clean = read_journal(cj.path);
  // Each clean row line and the index it carries ({"kind":"row","i":N,...).
  std::map<std::string, std::size_t> clean_row_lines;
  for (const auto& line : split_lines(clean_bytes)) {
    const std::size_t at = line.find("\"i\":");
    if (at != std::string::npos)
      clean_row_lines[line] = std::stoul(line.substr(at + 4));
  }
  ASSERT_EQ(clean_row_lines.size(), cj.specs.size());
  const JournalHeader expected{cj.identity, cj.specs.size()};
  const std::string path =
      (fs::temp_directory_path() /
       ("pns-mutation-" + std::to_string(::getpid()) + ".jsonl"))
          .string();

  int readable = 0;
  int refused = 0;
  int resumed = 0;
  for (int seed = 0; seed < kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed));
    std::string bytes = clean_bytes;
    // One to three mutations; at most one byte flip, because two flips
    // on one line could rewrite a row *and* its checksum -- damage no
    // CRC can see, and not what this test is about.
    const std::size_t n = 1 + rng.uniform_index(3);
    bool flipped = false;
    for (std::size_t m = 0; m < n; ++m) {
      auto kind = static_cast<Mutation>(rng.uniform_index(5));
      if (kind == Mutation::kByteFlip && flipped) kind = Mutation::kTruncate;
      flipped = flipped || kind == Mutation::kByteFlip;
      mutate(bytes, kind, rng);
    }
    write_file(path, bytes);

    JournalContents got;
    try {
      got = read_journal(path);
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()), "");
      ++refused;
      continue;
    }
    ++readable;

    // A subset of the clean rows, each bit for bit.
    for (const auto& [i, row] : got.rows) {
      const auto it = clean.rows.find(i);
      ASSERT_NE(it, clean.rows.end()) << "row " << i << " was never written";
      EXPECT_EQ(json_of(row), json_of(it->second)) << "row " << i;
    }
    // No intact row line inside the sweep is lost; each one outside it
    // (a header edit can shrink `total`) is dropped with a note naming
    // its line.
    const auto lines = split_lines(bytes);
    for (std::size_t k = 0; k < lines.size(); ++k) {
      const auto it = clean_row_lines.find(lines[k]);
      if (it == clean_row_lines.end()) continue;
      if (it->second < got.header.total) {
        EXPECT_EQ(got.rows.count(it->second), 1u)
            << "intact row " << it->second << " lost";
        continue;
      }
      const std::string note = path + ":" + std::to_string(k + 1) +
                               ": row index " + std::to_string(it->second) +
                               " outside the sweep's " +
                               std::to_string(got.header.total) +
                               " scenarios -- line dropped";
      EXPECT_EQ(std::count(got.notes.begin(), got.notes.end(), note), 1)
          << note;
    }
    // One note per bad line, each naming its own line of this file.
    EXPECT_EQ(got.notes.size(), got.dropped_lines + got.quarantined_lines);
    std::size_t last = 0;
    for (const auto& note : got.notes) {
      const std::size_t line = note_line(note, path);
      EXPECT_GT(line, last) << note;
      EXPECT_LE(line, lines.size()) << note;
      last = line;
    }

    // The identity check is the second gate: it refuses or passes, and a
    // passing, damaged journal resumes to the clean bytes.
    try {
      read_journal(path, expected);
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()).find("refusing to mix sweeps"),
                std::string::npos)
          << e.what();
      continue;
    }
    if (readable % kResumeEvery != 0) continue;
    const auto report = SweepRunner().resume(cj.specs, path, cj.identity);
    EXPECT_EQ(report.notes, got.notes);
    EXPECT_EQ(csv_of(report.rows), cj.csv);
    ++resumed;
  }
  fs::remove(path);
  // The mutants reach both outcomes and the resume leg.
  EXPECT_GT(readable, kCases / 4);
  EXPECT_GT(refused, kCases / 20);
  EXPECT_GT(resumed, 0);
}

}  // namespace
}  // namespace pns::sweep
