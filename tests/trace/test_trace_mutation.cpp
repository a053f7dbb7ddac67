// Seeded mutation test of the trace CSV loader.
//
// A saved irradiance trace is damaged the ways a hand-edited or
// half-copied file gets damaged -- byte flips, truncation, a duplicated
// or swapped line, an inserted garbage line, a cell replaced by a
// nan/inf token -- and loaded back. Every load must either return a
// finite trace with strictly increasing times, or throw
// std::runtime_error with a message naming the file; never crash, never
// hand a NaN or an unordered time to the interpolator. The ASan+UBSan job
// runs this suite, so an out-of-bounds read or undefined behaviour in the
// loader fails there.
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "util/time_series.hpp"

#include "../support/text_file.hpp"

namespace pns::trace {
namespace {

namespace fs = std::filesystem;

constexpr int kCases = 500;

using pns::test_support::join_lines;
using pns::test_support::read_file;
using pns::test_support::split_lines;
using pns::test_support::write_file;

enum class Mutation { kByteFlip, kTruncate, kDuplicateLine, kSwapLines,
                      kGarbageLine, kNonFiniteToken };
constexpr std::uint64_t kMutationKinds = 6;

/// Applies one mutation of `kind` to the trace bytes.
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
    case Mutation::kSwapLines: {
      auto lines = split_lines(bytes);
      if (lines.size() < 2) return;
      std::swap(lines[rng.uniform_index(lines.size())],
                lines[rng.uniform_index(lines.size())]);
      bytes = join_lines(lines);
      return;
    }
    case Mutation::kGarbageLine: {
      auto lines = split_lines(bytes);
      std::string garbage(1 + rng.uniform_index(40), ' ');
      for (char& c : garbage) {
        // Mostly number syntax and separators, so some garbage reads as
        // a partial number or a plausible row.
        static const std::string alphabet =
            "0123456789.,-+eExnaif \t\r";
        c = alphabet[rng.uniform_index(alphabet.size())];
      }
      const std::size_t at = rng.uniform_index(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), garbage);
      bytes = join_lines(lines);
      return;
    }
    case Mutation::kNonFiniteToken: {
      auto lines = split_lines(bytes);
      if (lines.empty()) return;
      static const char* const tokens[] = {"nan", "-nan", "NaN", "inf",
                                           "-inf", "infinity", "1e999"};
      std::string& line = lines[rng.uniform_index(lines.size())];
      const std::size_t comma = line.find(',');
      const std::string token = tokens[rng.uniform_index(7)];
      if (comma == std::string::npos || rng.bernoulli(0.5))
        line = token + (comma == std::string::npos ? "" : line.substr(comma));
      else
        line = line.substr(0, comma + 1) + token;
      bytes = join_lines(lines);
      return;
    }
  }
}

/// A saved quarter-hour irradiance trace, the shape `--source trace:`
/// reads: header, then one "t,value" row per 15 s.
std::string saved_trace(const std::string& path) {
  pns::TimeSeries ts;
  for (int k = 0; k <= 60; ++k) {
    const double t = 15.0 * k;
    ts.append(t, 600.0 + 300.0 * std::sin(t / 97.0) - 0.37 * k);
  }
  EXPECT_TRUE(save_trace_csv(path, ts));
  return read_file(path);
}

TEST(TraceMutation, EveryMutantLoadsFiniteAndIncreasingOrThrowsNamingFile) {
  const std::string path =
      (fs::temp_directory_path() /
       ("pns-trace-mutation-" + std::to_string(::getpid()) + ".csv"))
          .string();
  const std::string clean_bytes = saved_trace(path);
  const auto clean = load_trace_csv(path);
  ASSERT_EQ(clean.size(), 61u);

  int loaded = 0;
  int refused = 0;
  for (int seed = 0; seed < kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed));
    std::string bytes = clean_bytes;
    const std::size_t n = 1 + rng.uniform_index(3);
    for (std::size_t m = 0; m < n; ++m)
      mutate(bytes, static_cast<Mutation>(rng.uniform_index(kMutationKinds)),
             rng);
    write_file(path, bytes);

    pns::PiecewiseLinear got;
    try {
      got = load_trace_csv(path);
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("load_trace_csv: ", 0), 0u) << what;
      EXPECT_NE(what.find(path), std::string::npos) << what;
      ++refused;
      continue;
    }
    ++loaded;
    const auto& xs = got.xs();
    const auto& ys = got.ys();
    ASSERT_GE(xs.size(), 2u);
    ASSERT_EQ(xs.size(), ys.size());
    EXPECT_LE(xs.size(), split_lines(bytes).size());
    for (std::size_t k = 0; k < xs.size(); ++k) {
      EXPECT_TRUE(std::isfinite(xs[k])) << "knot " << k;
      EXPECT_TRUE(std::isfinite(ys[k])) << "knot " << k;
      if (k > 0) {
        EXPECT_GT(xs[k], xs[k - 1]) << "knot " << k;
      }
    }
    if (bytes == clean_bytes) {
      EXPECT_EQ(xs, clean.xs());
      EXPECT_EQ(ys, clean.ys());
    }
  }
  fs::remove(path);
  // Both outcomes are exercised, so neither half of the oracle is vacuous.
  EXPECT_GT(loaded, kCases / 20);
  EXPECT_GT(refused, kCases / 4);
}

}  // namespace
}  // namespace pns::trace
