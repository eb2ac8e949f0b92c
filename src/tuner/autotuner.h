// Common interface of all auto-tuning algorithms (RS, AL, GEIST, ALpH,
// CEAL). Each algorithm consumes a TuningProblem plus a budget of
// workflow-run equivalents and produces a TuneResult carrying the final
// surrogate's scores over the whole pool, the training history, and the
// collection cost — everything the evaluation metrics of §7.2 need.
#pragma once

#include <string>
#include <vector>

#include "core/rng.h"
#include "tuner/measured_pool.h"

#include <memory>

namespace ceal::tuner {

class CheckpointSession;
class TunerStepper;

struct TuneResult {
  /// Final-model scores for every pool configuration (lower = better).
  std::vector<double> model_scores;
  /// Pool indices requested as training samples, in order — including
  /// attempts that failed or were censored under fault injection.
  std::vector<std::size_t> measured_indices;
  /// Run status per measured_indices entry (all kOk without faults).
  std::vector<sim::RunStatus> measured_statuses;
  /// Number of measured_indices entries without a usable value.
  std::size_t failed_runs = 0;
  /// The searcher's recommendation: argmin of model_scores.
  std::size_t best_predicted_index = 0;
  /// Best *measured* training configuration (argmin observed value).
  std::size_t best_measured_index = 0;
  std::size_t runs_used = 0;
  /// Collection cost: summed wall-clock seconds of charged runs.
  double cost_exec_s = 0.0;
  /// Collection cost in core-hours.
  double cost_comp_ch = 0.0;
};

class AutoTuner {
 public:
  virtual ~AutoTuner() = default;

  virtual std::string name() const = 0;

  /// Fewest budget_runs a session needs when the problem charges
  /// component runs: the component rounds must leave workflow runs to
  /// train on. 0 for tuners that charge none. make_stepper refuses a
  /// smaller budget (require_component_budget) before it journals.
  virtual std::size_t min_charged_budget() const { return 0; }

  /// Creates a resumable step-wise session (tuner/stepper.h): each
  /// step() runs one bounded slice (a warm-up batch, one refinement
  /// iteration, the finalisation pass) and yields, so a server can
  /// multiplex many sessions over a shared thread pool. Driving the
  /// stepper to completion is exactly tune() — same rng draws, same
  /// telemetry events, same checkpoint records, bitwise-equal result.
  /// `problem` is copied; the objects it points to and `rng` must
  /// outlive the stepper.
  virtual std::unique_ptr<TunerStepper> make_stepper(
      const TuningProblem& problem, std::size_t budget_runs,
      ceal::Rng& rng) const = 0;

  /// Runs one complete auto-tuning session within `budget_runs` workflow-
  /// run equivalents. Deterministic given `rng`'s state. Implemented by
  /// driving make_stepper()'s session to completion.
  TuneResult tune(const TuningProblem& problem, std::size_t budget_runs,
                  ceal::Rng& rng) const;

  /// Crash-safe overload: journals the session into `checkpoint` so a
  /// killed process can resume it (tuner/checkpoint.h). With a null
  /// checkpoint this is exactly the plain overload — existing callers
  /// are untouched. When `checkpoint` was opened in resume mode the
  /// journaled prefix of the session is replayed (measurements are
  /// served from the journal, free of machine time) and the session
  /// continues live from the crash point; the returned TuneResult is
  /// bitwise identical to an uninterrupted run. Throws CheckpointError
  /// when the journal does not match (problem, budget_runs, rng).
  TuneResult tune(const TuningProblem& problem, std::size_t budget_runs,
                  ceal::Rng& rng, CheckpointSession* checkpoint) const;

  /// Checkpointable stepper: writes/validates the session header now
  /// and attaches `checkpoint` to the stepper's problem, so the session
  /// journals every measurement and decision as it is stepped and
  /// writes the terminal record when it finishes. A null checkpoint is
  /// exactly the plain overload.
  std::unique_ptr<TunerStepper> make_stepper(
      const TuningProblem& problem, std::size_t budget_runs, ceal::Rng& rng,
      CheckpointSession* checkpoint) const;
};

}  // namespace ceal::tuner
