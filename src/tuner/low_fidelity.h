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

#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "tuner/measured_pool.h"
#include "tuner/objective.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

/// One trained performance model per workflow component.
class ComponentModelSet {
 public:
  /// Trains a model per component for `objective`, using the component
  /// samples selected by `sample_indices` (one index list per component;
  /// indices address the ComponentSamples arrays). Every component needs
  /// at least one sample. `gbt` configures the per-component boosted
  /// trees (TuningProblem::surrogate_gbt).
  ComponentModelSet(
      const sim::InSituWorkflow& workflow, Objective objective,
      const std::vector<ComponentSamples>& samples,
      const std::vector<std::vector<std::size_t>>& sample_indices,
      ceal::Rng& rng,
      const ml::GbtParams& gbt = ml::GradientBoostedTrees::surrogate_defaults());

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
  /// for ranking, not as a time prediction (§4).
  double score(const config::Configuration& joint) const;

  /// Scores for a batch of joint configurations.
  std::vector<double> score_many(
      std::span<const config::Configuration> joints) const;

  /// Scores for a block of joint configurations from its per-component
  /// slice feature matrices (one per component, equal row counts, as
  /// PoolScorer builds them); bitwise equal to score() per row.
  std::vector<double> score_many(
      const std::vector<ml::FeatureMatrix>& components) const;

 private:
  const sim::InSituWorkflow* workflow_;
  Objective objective_;
  std::shared_ptr<const ComponentModelSet> components_;
};

}  // namespace ceal::tuner
