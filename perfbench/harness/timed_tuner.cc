#include "harness/timed_tuner.h"

#include "tuner/stepper.h"

namespace perfbench {

using ceal::tuner::TuneResult;
using ceal::tuner::TunerProgress;
using ceal::tuner::TunerStepper;
using ceal::tuner::TuningProblem;

void SessionLog::step(double seconds) {
  std::lock_guard lock(mutex_);
  stats_.step_s.push_back(seconds);
}

void SessionLog::session(double seconds, const TuneResult& result) {
  std::lock_guard lock(mutex_);
  stats_.session_s.push_back(seconds);
  stats_.session_end.push_back(now_s());
  stats_.session_wall_total_s += seconds;
  stats_.cost_exec_s += result.cost_exec_s;
}

SessionStats SessionLog::snapshot() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

namespace {

/// The outer stepper's own problem copy carries no telemetry, so the
/// base class's tuner.step span is recorded once, by the inner stepper.
TuningProblem untraced(const TuningProblem& problem) {
  TuningProblem copy = problem;
  copy.telemetry = nullptr;
  return copy;
}

class TimedStepper final : public TunerStepper {
 public:
  TimedStepper(std::unique_ptr<TunerStepper> inner, SessionLog& log,
               double created_s, ceal::Rng& rng)
      : TunerStepper(untraced(inner->problem()), inner->budget_runs(), rng),
        inner_(std::move(inner)),
        log_(log),
        created_s_(created_s) {}

  TunerProgress progress() const override { return inner_->progress(); }

 protected:
  void do_step() override {
    const double t0 = now_s();
    const bool more = inner_->step();
    const double t1 = now_s();
    log_.step(t1 - t0);
    if (!more) {
      TuneResult result = inner_->take_result();
      log_.session(t1 - created_s_, result);
      finish(std::move(result));
    }
  }

 private:
  std::unique_ptr<TunerStepper> inner_;
  SessionLog& log_;
  double created_s_;
};

}  // namespace

std::unique_ptr<TunerStepper> TimedTuner::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  const double created = now_s();
  return std::make_unique<TimedStepper>(
      inner_.make_stepper(problem, budget_runs, rng), log_, created, rng);
}

}  // namespace perfbench
