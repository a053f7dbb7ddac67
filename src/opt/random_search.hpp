// Log-uniform random search over the controller parameter space.
//
// Complements grid search: with four coupled parameters, random sampling
// covers the space far more efficiently per evaluation (Bergstra & Bengio
// style) and is what the parameter_tuning example uses for exploration.
#pragma once

#include <cstdint>

#include "opt/grid_search.hpp"

namespace pns::opt {

/// Inclusive log-uniform sampling ranges per axis.
struct RandomSearchSpec {
  double v_width_lo = 0.05, v_width_hi = 0.40;
  double v_q_lo = 0.01, v_q_hi = 0.15;
  double alpha_lo = 0.03, alpha_hi = 0.50;
  double beta_lo = 0.10, beta_hi = 2.00;
  std::size_t iterations = 64;
  std::uint64_t seed = 1234;
};

/// Draws `iterations` parameter sets (rejecting invalid combinations by
/// resampling, up to a bounded number of retries each), then evaluates
/// them as one batch -- parallel when the objective is backed by
/// sweep::SweepRunner. The candidate stream is a pure function of the
/// seed.
SearchResult random_search(const BatchObjective& objective,
                           const RandomSearchSpec& spec);

}  // namespace pns::opt
