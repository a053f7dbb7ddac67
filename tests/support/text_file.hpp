// Whole-file and line helpers shared by the seeded mutation tests
// (tests/sweep/test_journal_mutation.cpp, tests/trace/test_trace_mutation.cpp).
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pns::test_support {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

inline void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

inline std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + '\n';
  return out;
}

}  // namespace pns::test_support
