// Solar-day simulation: run the power-neutral system through a realistic
// harvesting day with selectable weather, and optionally dump the full
// traces to CSV for plotting.
//
// Usage: ./examples/solar_day [full-sun|partial-sun|cloud|hail]
//                             [hours] [seed] [out.csv] [start-hour]
//
// Defaults reproduce the paper's Fig. 12 setting: full sun, 10:30-16:30.
// An empty out.csv ("") skips the trace dump, so a start hour can be
// given without one. Bad arguments exit 2 with a one-line diagnostic.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "sweep/scenario.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

/// Parses the whole of `text` as T; nullopt on any leftover character.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// A finite, strictly positive number of hours, or exit 2.
double positive_hours(const char* what, std::string_view text) {
  const auto v = parse_number<double>(text);
  if (!v || !std::isfinite(*v) || *v <= 0.0) {
    std::fprintf(stderr,
                 "%s: expected a positive number of hours, got '%.*s'\n", what,
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pns;

  sweep::ScenarioSpec scenario;  // PNS on the paper's board and node
  if (argc > 1) {
    const auto condition = trace::weather_condition_from_string(argv[1]);
    if (!condition) {
      std::fprintf(stderr,
                   "unknown condition '%s' (want full-sun|partial-sun|cloud|"
                   "hail)\n",
                   argv[1]);
      return 2;
    }
    scenario.condition = *condition;
  }
  const double hours = argc > 2 ? positive_hours("hours", argv[2]) : 6.0;
  const double start_hour =
      argc > 5 ? positive_hours("start-hour", argv[5]) : 10.5;
  scenario.t_start = start_hour * 3600.0;
  scenario.t_end = scenario.t_start + hours * 3600.0;
  if (argc > 3) {
    const auto seed = parse_number<std::uint64_t>(argv[3]);
    if (!seed) {
      std::fprintf(stderr, "seed: expected an unsigned integer, got '%s'\n",
                   argv[3]);
      return 2;
    }
    scenario.seed = *seed;
  }
  scenario.record_series = true;
  scenario.record_interval_s = 1.0;

  std::printf("simulating %s, %.1f h from %s, seed %llu...\n",
              to_string(scenario.condition), hours,
              fmt_hhmm(scenario.t_start).c_str(),
              static_cast<unsigned long long>(scenario.seed));
  const auto r = sweep::run_scenario(scenario);
  const auto& m = r.metrics;

  ConsoleTable table({"metric", "value"});
  table.add_row({"condition", to_string(scenario.condition)});
  table.add_row({"window", fmt_hhmm(m.t_start) + " - " + fmt_hhmm(m.t_end)});
  table.add_row({"brownouts", std::to_string(m.brownouts)});
  table.add_row({"lifetime", fmt_mmss(m.lifetime_s)});
  table.add_row({"time in +/-5% band",
                 fmt_double(100.0 * m.fraction_in_band(), 1) + " %"});
  table.add_row({"mean VC", fmt_double(m.vc_stats.mean(), 3) + " V"});
  table.add_row({"VC std-dev", fmt_double(m.vc_stats.stddev(), 3) + " V"});
  table.add_row({"energy harvested",
                 fmt_double(m.energy_harvested_j / 3600.0, 2) + " Wh"});
  table.add_row({"energy consumed",
                 fmt_double(m.energy_consumed_j / 3600.0, 2) + " Wh"});
  table.add_row(
      {"instructions", fmt_double(m.instructions / 1e9, 1) + " G"});
  table.add_row({"renders/min", fmt_double(m.renders_per_min(), 4)});
  table.add_row({"controller interrupts",
                 std::to_string(r.controller.interrupts)});
  table.add_row({"ctrl CPU overhead",
                 fmt_double(100.0 * r.controller.cpu_overhead(m.duration()),
                            3) +
                     " %"});
  table.print(std::cout, "solar day summary");

  if (argc > 4 && *argv[4] != '\0') {
    const std::string path = argv[4];
    const bool ok = write_series_csv(
        path, {{"vc", &r.series.vc},
               {"freq_hz", &r.series.freq_hz},
               {"n_little", &r.series.n_little},
               {"n_big", &r.series.n_big},
               {"p_consumed", &r.series.p_consumed},
               {"p_available", &r.series.p_available}});
    std::printf("%s traces to %s\n", ok ? "wrote" : "FAILED to write",
                path.c_str());
    return ok ? 0 : 1;
  }
  return 0;
}
