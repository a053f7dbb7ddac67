#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

#include "sim/experiment.hpp"
#include "sweep/presets.hpp"
#include "sweep/registry.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace pns;

namespace {

constexpr double kTable2Minutes = 60.0;
constexpr std::uint64_t kTable2Seeds = 3;  // as the preset's 42/43/44
constexpr double kCapacitanceMinutes = 60.0;
// A seeded capacitance_fast run covers this many weather draws: the cost
// of one draw varies about +/-25 % with the seed (brownout storms in the
// cloud and partial-sun rows), which would swamp any code change.
constexpr std::uint64_t kCapacitanceSeeds = 8;
// Likewise one param_grid draw costs from 0.8x to 1.6x the median.
constexpr std::uint64_t kGridSeeds = 3;

std::vector<std::uint64_t> seeds_from(std::uint64_t first,
                                      std::uint64_t count) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(first + i);
  return seeds;
}
// bench_param_selection's scoring window.
constexpr double kGridMinutes = 10.0;

sweep::SweepSpec preset(const char* name, double minutes) {
  const sweep::SweepPreset* p = sweep::find_sweep_preset(name);
  if (p == nullptr)
    throw std::runtime_error(std::string("unknown sweep preset: ") + name);
  return p->make(minutes);
}

std::string fmt(double v) { return shortest_double(v); }

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

double process_cpu_s() {
  const rusage ru = self_usage();
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double peak_rss_mb() {
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "table2") return Workload::kTable2;
  if (name == "capacitance_fast") return Workload::kCapacitanceFast;
  if (name == "param_grid") return Workload::kParamGrid;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTable2:
      return "table2";
    case Workload::kCapacitanceFast:
      return "capacitance_fast";
    case Workload::kParamGrid:
      return "param_grid";
  }
  return "?";
}

Prepared prepare(const Options& opt) {
  sweep::ControlRegistry::instance();
  sweep::SourceRegistry::instance();
  sweep::IntegratorRegistry::instance();
  sweep::PlatformRegistry::instance();

  Prepared p;
  switch (opt.workload) {
    case Workload::kTable2: {
      sweep::SweepSpec sw =
          preset("table2", opt.minutes.value_or(kTable2Minutes));
      if (opt.seed) sw.seeds = seeds_from(*opt.seed, kTable2Seeds);
      p.specs = sw.expand();
      break;
    }
    case Workload::kCapacitanceFast: {
      sweep::SweepSpec sw =
          preset("capacitance", opt.minutes.value_or(kCapacitanceMinutes));
      sw.base.integrator = sweep::IntegratorSpec::parse("rk23pi");
      sw.base.pv_mode = ehsim::PvSource::Mode::kTabulated;
      if (opt.seed) sw.seeds = seeds_from(*opt.seed, kCapacitanceSeeds);
      p.specs = sw.expand();
      sim::paper_pv_table();
      break;
    }
    case Workload::kParamGrid: {
      p.grid = opt::GridSpec::paper_neighbourhood();
      p.candidates = p.grid.expand();
      const std::vector<std::uint64_t> seeds =
          opt.seed ? seeds_from(*opt.seed, kGridSeeds)
                   : std::vector<std::uint64_t>{7};
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        sweep::ScenarioSpec base;
        base.condition = trace::WeatherCondition::kPartialSun;
        base.t_start = 12.0 * 3600.0;
        base.t_end =
            base.t_start + 60.0 * opt.minutes.value_or(kGridMinutes);
        base.seed = seeds[i];
        const std::filesystem::path journal =
            opt.out_dir / ("param_grid." + std::to_string(i) + ".journal");
        std::filesystem::remove(journal);
        opt::SweepObjectiveOptions oo;
        oo.threads = opt.threads;
        oo.journal_path = journal.string();
        p.studies.push_back(
            {base, opt::SweepStabilityObjective(base, oo), journal});
      }
      break;
    }
  }
  return p;
}

std::vector<sweep::ScenarioSpec> grid_rows(const Prepared& p) {
  std::vector<sweep::ScenarioSpec> rows;
  for (const GridStudy& study : p.studies)
    for (const opt::ParamSet& c : p.candidates)
      if (c.valid()) rows.push_back(study.objective.scenario_for(c));
  return rows;
}

std::size_t row_count(const Prepared& p) {
  if (p.studies.empty()) return p.specs.size();
  const auto valid = std::count_if(
      p.candidates.begin(), p.candidates.end(),
      [](const opt::ParamSet& c) { return c.valid(); });
  return p.studies.size() * static_cast<std::size_t>(valid);
}

std::filesystem::path output_path(const Options& opt, const char* ext) {
  return opt.out_dir / (std::string(workload_name(opt.workload)) + ext);
}

std::string sweep_bytes(const sweep::Aggregator& agg) {
  std::ostringstream os;
  agg.write_csv(os);
  agg.write_json(os);
  return os.str();
}

std::string grid_bytes(const opt::SearchResult& r) {
  std::ostringstream os;
  os << "v_width,v_q,alpha,beta,score\n";
  for (const opt::ScoredParams& e : r.evaluated)
    os << fmt(e.params.v_width) << ',' << fmt(e.params.v_q) << ','
       << fmt(e.params.alpha) << ',' << fmt(e.params.beta) << ','
       << fmt(e.score) << '\n';
  os << "best," << fmt(r.best.v_width) << ',' << fmt(r.best.v_q) << ','
     << fmt(r.best.alpha) << ',' << fmt(r.best.beta) << ','
     << fmt(r.best_score) << '\n';
  return os.str();
}

std::string grid_bytes(const Prepared& p,
                       const std::vector<sweep::SummaryRow>& rows) {
  std::string bytes;
  std::size_t next = 0;
  for (std::size_t s = 0; s < p.studies.size(); ++s) {
    std::vector<double> scores(p.candidates.size(), -1.0);
    for (std::size_t i = 0; i < p.candidates.size(); ++i) {
      if (!p.candidates[i].valid()) continue;
      const sweep::SummaryRow& row = rows.at(next++);
      if (row.ok) scores[i] = row.fraction_in_band;
    }
    bytes += grid_bytes(opt::make_search_result(p.candidates, scores));
  }
  return bytes;
}

Check table2_claim(const std::vector<sweep::SummaryRow>& rows) {
  Check c{"table2.claim", true, ""};
  std::map<std::uint64_t, std::map<std::string, const sweep::SummaryRow*>>
      by_seed;
  for (const sweep::SummaryRow& r : rows) by_seed[r.seed][r.control] = &r;
  auto fail = [&](std::uint64_t seed, const std::string& why) {
    if (c.pass) c.detail = "seed " + std::to_string(seed) + ": " + why;
    c.pass = false;
  };
  for (const auto& [seed, ctl] : by_seed) {
    auto row = [&](const std::string& kind) -> const sweep::SummaryRow* {
      auto it = ctl.find(kind);
      return it == ctl.end() || !it->second->ok ? nullptr : it->second;
    };
    const sweep::SummaryRow* pns_row = row("pns");
    if (pns_row == nullptr) {
      fail(seed, "no pns row");
      continue;
    }
    if (pns_row->brownouts != 0) fail(seed, "pns browned out");
    for (const char* g : {"performance", "ondemand", "interactive",
                          "conservative", "powersave"}) {
      const sweep::SummaryRow* r = row(std::string("gov:") + g);
      if (r == nullptr) {
        fail(seed, std::string("no ") + g + " row");
        continue;
      }
      const bool survives = std::string(g) == "powersave";
      if ((r->brownouts == 0) != survives)
        fail(seed, std::string(g) + (survives ? " browned out"
                                              : " did not brown out"));
      if (r->instructions >= pns_row->instructions)
        fail(seed, std::string(g) + " completed as many instructions as pns");
    }
  }
  if (c.pass) c.detail = std::to_string(by_seed.size()) + " seeds";
  return c;
}

Check section3_claim(const Options& opt, const GridStudy& study,
                     const opt::SearchResult& r) {
  opt::SweepObjectiveOptions oo;
  oo.threads = opt.threads;
  const opt::SweepStabilityObjective paper(study.base, oo);
  const double score =
      paper(std::vector<opt::ParamSet>{{0.144, 0.0479, 0.120, 0.479}})[0];
  Check c{"section3.claim", score >= r.best_score - 0.01, ""};
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "seed %llu: paper optimum %.2f %% vs grid best %.2f %%",
                static_cast<unsigned long long>(study.base.seed),
                100.0 * score, 100.0 * r.best_score);
  c.detail = buf;
  return c;
}

}  // namespace perfbench
