// Exhaustive grid search over the controller parameter space.
//
// The paper's §III sweeps parameter combinations in Simulink; this is the
// equivalent driver. All evaluated points are returned so benches can
// print the score landscape, not just the winner.
//
// An objective receives every candidate of a search stage at once, which
// lets the simulation-backed SweepStabilityObjective fan the batch out
// over sweep::SweepRunner (see opt/objective.hpp) and inherit its thread
// pool and checkpoint journal.
#pragma once

#include <functional>
#include <vector>

#include "opt/objective.hpp"

namespace pns::opt {

/// Evaluates a whole batch of candidates; returns one score per input, in
/// order. Invalid candidates (ParamSet::valid() == false) must score -1.
using BatchObjective =
    std::function<std::vector<double>(const std::vector<ParamSet>&)>;

/// Candidate values per axis.
struct GridSpec {
  std::vector<double> v_width;
  std::vector<double> v_q;
  std::vector<double> alpha;
  std::vector<double> beta;

  /// Total number of combinations.
  std::size_t size() const {
    return v_width.size() * v_q.size() * alpha.size() * beta.size();
  }

  /// Every combination in canonical order: v_width outermost, then v_q,
  /// alpha, beta innermost -- the order grid_search evaluates and reports.
  std::vector<ParamSet> expand() const;

  /// The sweep used by bench_param_selection: brackets the paper's optimum
  /// (144 mV, 47.9 mV, 0.120 V/s, 0.479 V/s).
  static GridSpec paper_neighbourhood();
};

/// One evaluated point.
struct ScoredParams {
  ParamSet params;
  double score;
};

/// Search outcome: every evaluated point plus the argmax. Ties go to the
/// earlier point in evaluation order.
struct SearchResult {
  std::vector<ScoredParams> evaluated;
  ParamSet best{};
  double best_score = -1.0;
};

/// Pairs candidates with their scores and selects the argmax (first
/// candidate wins ties). The single reduction shared by every search
/// driver, so best-selection semantics cannot diverge between them.
/// Requires scores.size() == candidates.size().
SearchResult make_search_result(std::vector<ParamSet> candidates,
                                const std::vector<double>& scores);

/// Evaluates every grid combination: expands the grid once and hands the
/// whole candidate set to `objective` -- parallel when backed by
/// SweepStabilityObjective. Invalid combinations score -1 and are kept in
/// `evaluated` for completeness, flagged by their score.
SearchResult grid_search(const BatchObjective& objective,
                         const GridSpec& grid);

}  // namespace pns::opt
