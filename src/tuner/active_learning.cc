#include "tuner/active_learning.h"

#include <memory>

#include "core/error.h"
#include "core/telemetry.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

ActiveLearning::ActiveLearning(ActiveLearningParams params)
    : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
}

namespace {

// AL: the shared refinement loop around a boosted-tree surrogate, refit
// and rescored over the whole pool every iteration.
class ActiveLearningStepper final : public RefinementStepper {
 public:
  ActiveLearningStepper(const ActiveLearning& algorithm,
                        const ActiveLearningParams& params,
                        const TuningProblem& problem, std::size_t budget_runs,
                        ceal::Rng& rng)
      : RefinementStepper(algorithm, "al.iteration", params.iterations,
                          params.init_fraction, problem, budget_runs, rng),
        surrogate_(problem_.surrogate_gbt) {}

 private:
  Refinement refine() override {
    Refinement out;
    out.fit_s = fit_on_measured(surrogate_, collector_, *rng_);
    telemetry::ScopedCausalSpan predict_span(problem_.telemetry,
                                             "surrogate.predict");
    out.scores = pool_scorer_.surrogate_scores(surrogate_);
    out.predict_s = predict_span.stop();
    return out;
  }

  Surrogate surrogate_;
};

}  // namespace

std::unique_ptr<TunerStepper> ActiveLearning::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  return std::make_unique<ActiveLearningStepper>(*this, params_, problem,
                                                 budget_runs, rng);
}

}  // namespace ceal::tuner
