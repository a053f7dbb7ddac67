#include "trace/trace_io.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace pns::trace {

bool save_trace_csv(const std::string& path, const pns::TimeSeries& series) {
  std::ofstream f(path);
  if (!f) return false;
  pns::CsvWriter w(f);
  w.header({"t", "value"});
  for (std::size_t i = 0; i < series.size(); ++i)
    w.row({series.times()[i], series.values()[i]});
  return static_cast<bool>(f);
}

namespace {

/// Whether `cell` starts with a number strtod can read at all.
bool starts_numeric(const std::string& cell) {
  char* end = nullptr;
  std::strtod(cell.c_str(), &end);
  return end != cell.c_str();
}

/// Parses the whole of `cell` as a double: leading and trailing
/// whitespace (a trailing '\r' included) is allowed, nothing else.
bool parse_cell(const std::string& cell, double& out) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  if (end == begin) return false;
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end)))
    ++end;
  return *end == '\0';
}

}  // namespace

pns::PiecewiseLinear load_trace_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_trace_csv: cannot open " + path);
  std::vector<double> ts, vs;
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& reason) {
    return std::runtime_error("load_trace_csv: " + path + ":" +
                              std::to_string(line_no) + ": " + reason);
  };
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    std::istringstream ss(line);
    std::string a, b;
    if (!std::getline(ss, a, ',') || !std::getline(ss, b, ','))
      throw fail("expected two comma-separated columns");
    // An optional header: a first line whose cells are not numbers.
    if (line_no == 1 && (!starts_numeric(a) || !starts_numeric(b))) continue;
    double t = 0.0, v = 0.0;
    if (!parse_cell(a, t)) throw fail("time '" + a + "' is not a number");
    if (!parse_cell(b, v)) throw fail("value '" + b + "' is not a number");
    if (!std::isfinite(t)) throw fail("time '" + a + "' is not finite");
    if (!std::isfinite(v)) throw fail("value '" + b + "' is not finite");
    if (!ts.empty() && !(t > ts.back()))
      throw fail("time '" + a + "' does not exceed the previous time");
    ts.push_back(t);
    vs.push_back(v);
  }
  if (ts.size() < 2)
    throw std::runtime_error("load_trace_csv: fewer than 2 samples in " +
                             path);
  return pns::PiecewiseLinear(std::move(ts), std::move(vs));
}

}  // namespace pns::trace
