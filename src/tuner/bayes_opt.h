// Bayesian-optimisation auto-tuner — the §9 "future work" extension.
//
// Uncertainty comes from a bootstrapped ensemble of boosted-tree
// surrogates (no Gaussian process needed): each member is trained on a
// bootstrap resample of the measured data, and the ensemble's spread
// estimates the predictive standard deviation. Batches are selected by a
// lower-confidence-bound acquisition, mu - kappa * sigma (times are
// minimised), which naturally trades exploration against exploitation
// and tolerates measurement noise, as the paper anticipates for BO.
//
// With `bootstrap_with_low_fidelity` set, the first batch is chosen by
// CEAL's combined component models instead of at random — BO slotted
// into the bootstrapping method as the black-box phase-2 technique.
#pragma once

#include "tuner/autotuner.h"

namespace ceal::tuner {

struct BayesOptParams {
  std::size_t iterations = 8;
  /// Fraction of the budget used for the initial design.
  double init_fraction = 0.25;
  /// Ensemble members used for the uncertainty estimate.
  std::size_t ensemble_size = 8;
  /// Exploration weight in the LCB acquisition mu - kappa * sigma.
  double kappa = 1.0;
  /// Seed the initial batch with the low-fidelity model (costs m_R
  /// component rounds when no histories are available).
  bool bootstrap_with_low_fidelity = false;
  /// Component-run budget fraction when bootstrapping without histories.
  double mR_fraction = 0.5;
};

class BayesOpt final : public AutoTuner {
 public:
  explicit BayesOpt(BayesOptParams params = {});

  std::string name() const override {
    return params_.bootstrap_with_low_fidelity ? "BO-CEAL" : "BO";
  }
  /// BO-CEAL: m_R >= 1 component rounds plus two workflow runs.
  std::size_t min_charged_budget() const override {
    return params_.bootstrap_with_low_fidelity ? 3 : 0;
  }

  std::unique_ptr<TunerStepper> make_stepper(const TuningProblem& problem,
                                             std::size_t budget_runs,
                                             ceal::Rng& rng) const override;

 private:
  BayesOptParams params_;
};

}  // namespace ceal::tuner
