// Session and step timing from outside the tuner: a decorator over
// AutoTuner whose steppers wrap the real algorithm's stepper. Every
// session that the wrapped tuner runs — directly through
// make_stepper/step, or inside AutoTuner::tune and tuner::evaluate —
// reports its wall time (stepper creation to result), each step's
// latency, and the simulated measurement seconds it charged. The inner
// stepper draws the same rng values and returns the same result, so
// wrapping changes no output.
#pragma once

#include <memory>
#include <mutex>

#include "harness/report.h"
#include "tuner/autotuner.h"

namespace perfbench {

/// Thread-safe collector of session/step timings (replications of one
/// evaluate call step on several threads at once).
class SessionLog {
 public:
  void step(double seconds);
  void session(double seconds, const ceal::tuner::TuneResult& result);
  SessionStats snapshot() const;

 private:
  mutable std::mutex mutex_;
  SessionStats stats_;
};

class TimedTuner final : public ceal::tuner::AutoTuner {
 public:
  /// `inner` and `log` must outlive this tuner and its steppers.
  TimedTuner(const ceal::tuner::AutoTuner& inner, SessionLog& log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }
  std::unique_ptr<ceal::tuner::TunerStepper> make_stepper(
      const ceal::tuner::TuningProblem& problem, std::size_t budget_runs,
      ceal::Rng& rng) const override;

 private:
  const ceal::tuner::AutoTuner& inner_;
  SessionLog& log_;
};

}  // namespace perfbench
