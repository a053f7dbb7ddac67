// Objective function for controller parameter selection (paper §III).
//
// The paper selects (Vwidth, Vq, alpha, beta) by simulating the control
// system and scoring "the proportion of time spent within 5 % of the
// target voltage". SweepStabilityObjective reproduces that score over a
// configurable solar scenario, one sweep::SweepRunner batch per search
// stage; search drivers (grid/random) maximise it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/runner.hpp"

namespace pns::opt {

/// One candidate controller tuning.
struct ParamSet {
  double v_width;  ///< threshold spacing (V)
  double v_q;      ///< per-crossing shift (V)
  double alpha;    ///< LITTLE gradient threshold (V/s)
  double beta;     ///< big gradient threshold (V/s)

  /// Physically meaningful combinations: positive, beta > alpha, and the
  /// shift strictly inside the window so thresholds cannot leapfrog.
  bool valid() const {
    return v_width > 0.0 && v_q > 0.0 && v_q < v_width && alpha > 0.0 &&
           beta > alpha;
  }
};

/// Execution options for the SweepRunner-backed batch objective.
struct SweepObjectiveOptions {
  /// Worker threads for the evaluation batch (sweep::SweepRunnerOptions
  /// semantics: 0 = hardware concurrency).
  unsigned threads = 0;
  /// Non-empty: checkpoint every evaluated candidate to this journal and
  /// reuse completed evaluations on a re-run -- an interrupted overnight
  /// parameter study resumes exactly like an interrupted sweep. The
  /// journal is keyed to the candidate batch, so it is only reusable
  /// across runs of the *same* search (same grid / same random seed).
  std::string journal_path;
  /// Sweep identity recorded in the journal header.
  std::string journal_name = "opt";
};

/// The §III voltage-stability objective, evaluated through
/// sweep::SweepRunner: every candidate tuning becomes a power-neutral
/// ScenarioSpec over a shared base scenario, the batch fans out across the
/// runner's thread pool, and each score is the scenario's fraction of time
/// in the +/- band around the target. The engine is deterministic, so the
/// scores do not depend on the thread count -- parameter search simply
/// inherits the sweep runner's parallelism and checkpointing.
///
/// Scoring convention: invalid parameter sets score -1 without being
/// simulated; a scenario that *fails* (engine threw) also scores -1.
class SweepStabilityObjective {
 public:
  /// `base` carries everything but the controller tuning (window, weather,
  /// storage node, platform); its control field is overwritten per
  /// candidate.
  explicit SweepStabilityObjective(sweep::ScenarioSpec base,
                                   SweepObjectiveOptions options = {});

  /// The paper-standard study: 15-minute partial-sun window (short enough
  /// for dense sweeps, turbulent enough to separate good tunings), 47 mF
  /// buffer, MPP-centred 5 % band.
  static SweepStabilityObjective standard(const soc::Platform& platform,
                                          std::uint64_t seed = 7,
                                          SweepObjectiveOptions options = {});

  /// Usable anywhere a BatchObjective is accepted.
  std::vector<double> operator()(const std::vector<ParamSet>& batch) const;

  /// The spec a candidate resolves to (exposed for tests). The label
  /// encodes the tuning, so journals detect a changed candidate set.
  sweep::ScenarioSpec scenario_for(const ParamSet& p) const;

 private:
  sweep::ScenarioSpec base_;
  SweepObjectiveOptions options_;
};

}  // namespace pns::opt
