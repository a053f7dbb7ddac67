// Trace persistence: save/load sampled signals as two-column CSV.
//
// Lets users substitute their own measured irradiance or supply traces
// (e.g. the paper's published dataset, DOI 10.5258/SOTON/403155) for the
// synthetic weather generator.
#pragma once

#include <string>

#include "util/interp.hpp"
#include "util/time_series.hpp"

namespace pns::trace {

/// Writes "t,value" rows (with header) to `path`. Returns false on I/O
/// failure.
bool save_trace_csv(const std::string& path, const pns::TimeSeries& series);

/// Reads a two-column "t,value" CSV (first-line header optional) into a
/// piecewise-linear trace. Each cell must parse completely as a number
/// (surrounding whitespace and a trailing '\r' allowed), both columns must
/// be finite, and times must strictly increase in file order; columns
/// past the second are ignored. Throws std::runtime_error
/// "load_trace_csv: PATH:LINE: reason" at the first bad line, and on an
/// unreadable file or fewer than two samples.
pns::PiecewiseLinear load_trace_csv(const std::string& path);

}  // namespace pns::trace
