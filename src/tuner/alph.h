// ALpH (§4): the black-box alternative to CEAL's analytical combination.
// Component models are trained as in CEAL, but instead of combining their
// predictions with max/sum, ALpH feeds them as *extra features* —
// alongside the raw configuration — into a component-combining surrogate
// M'_0 trained on actual workflow runs, selected by an active-learning
// loop. Its deficiency (per the paper) is that it ignores the workflow
// structure and therefore needs real workflow runs from the start.
#pragma once

#include "tuner/autotuner.h"

namespace ceal::tuner {

struct AlphParams {
  std::size_t iterations = 8;
  double init_fraction = 0.25;
  /// Budget fraction used for component runs when no historical
  /// measurements are available (ignored in history mode).
  double component_fraction = 0.5;
};

class Alph final : public AutoTuner {
 public:
  explicit Alph(AlphParams params = {});

  std::string name() const override { return "ALpH"; }
  /// One component round plus one workflow run.
  std::size_t min_charged_budget() const override { return 2; }

  std::unique_ptr<TunerStepper> make_stepper(const TuningProblem& problem,
                                             std::size_t budget_runs,
                                             ceal::Rng& rng) const override;

 private:
  AlphParams params_;
};

}  // namespace ceal::tuner
