// Phase 1 of the bootstrapping method (§4): component performance models
// plus the analytical coupling model that combines them into the
// low-fidelity workflow model M_L.
//
// Each component model is a boosted-tree regressor over the component's
// own (small) configuration space, trained on solo-run measurements. The
// combination function follows the objective:
//   execution time  -> Score_e(c) = max_j t_e(c_j)   (Eqn. 1)
//   computer  time  -> Score_c(c) = sum_j t_c(c_j)   (Eqn. 2)
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "tuner/measured_pool.h"
#include "tuner/objective.h"
#include "tuner/surrogate.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::tuner {

/// One trained performance model per workflow component.
class ComponentModelSet {
 public:
  /// Trains a model per component for `objective`, using the component
  /// samples selected by `sample_indices` (one index list per component;
  /// indices address the ComponentSamples arrays). Every component needs
  /// at least one sample. `gbt` configures the per-component boosted
  /// trees (TuningProblem::surrogate_gbt). `telemetry` (nullable,
  /// TuningProblem::telemetry) records the models' batch predictions
  /// ("gbt.predict" spans and counters), not their fits.
  ComponentModelSet(
      const sim::InSituWorkflow& workflow, Objective objective,
      const std::vector<ComponentSamples>& samples,
      const std::vector<std::vector<std::size_t>>& sample_indices,
      ceal::Rng& rng,
      const ml::GbtParams& gbt = ml::GradientBoostedTrees::surrogate_defaults(),
      telemetry::Telemetry* telemetry = nullptr);

  std::size_t component_count() const { return models_.size(); }

  /// Predicted solo objective value of component j at its local
  /// configuration.
  double predict(std::size_t j, const config::Configuration& component_config)
      const;

  /// Batch predictions of component j over a matrix of its slice
  /// features.
  std::vector<double> predict_many(std::size_t j,
                                   const ml::FeatureMatrix& rows) const;

 private:
  const sim::InSituWorkflow* workflow_;
  std::vector<Surrogate> models_;
};

/// The analytical coupling model over component predictions: the
/// low-fidelity model M_L used to score (rank) configurations.
class LowFidelityModel {
 public:
  LowFidelityModel(const sim::InSituWorkflow& workflow, Objective objective,
                   std::shared_ptr<const ComponentModelSet> components);

  /// Score of a joint configuration (lower is better). Only meaningful
  /// for ranking, not as a time prediction (§4). The per-row reference
  /// of the batch pass.
  double score(const config::Configuration& joint) const;

  /// Scores for a batch of joint configurations, through the
  /// distinct-slice pass of PoolScorer::low_fidelity_scores; bitwise
  /// equal to score() per row.
  std::vector<double> score_many(
      std::span<const config::Configuration> joints) const;

  /// A score folds component predictions, in ascending j, into this
  /// seed with combine().
  static constexpr double kCombineSeed = 0.0;

  /// One fold step: max (execution time) or sum (computer time).
  double combine(double combined, double prediction) const {
    return objective_ == Objective::kExecTime
               ? std::max(combined, prediction)
               : combined + prediction;
  }

  const ComponentModelSet& components() const { return *components_; }

 private:
  const sim::InSituWorkflow* workflow_;
  Objective objective_;
  std::shared_ptr<const ComponentModelSet> components_;
};

}  // namespace ceal::tuner
