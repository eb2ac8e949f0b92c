#include "tuner/low_fidelity.h"

#include <algorithm>

#include "core/error.h"
#include "ml/dataset.h"
#include "tuner/pool_scorer.h"

namespace ceal::tuner {

ComponentModelSet::ComponentModelSet(
    const sim::InSituWorkflow& workflow, Objective objective,
    const std::vector<ComponentSamples>& samples,
    const std::vector<std::vector<std::size_t>>& sample_indices,
    ceal::Rng& rng, const ml::GbtParams& gbt,
    telemetry::Telemetry* telemetry)
    : workflow_(&workflow) {
  CEAL_EXPECT(samples.size() == workflow.component_count());
  CEAL_EXPECT(sample_indices.size() == samples.size());

  models_.reserve(samples.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    CEAL_EXPECT_MSG(!sample_indices[j].empty(),
                    "component model needs at least one sample");
    const auto& space = workflow.app(j).space();
    const auto& values = samples[j].measured(objective);
    std::vector<config::Configuration> configs;
    std::vector<double> targets;
    configs.reserve(sample_indices[j].size());
    targets.reserve(sample_indices[j].size());
    for (const std::size_t idx : sample_indices[j]) {
      CEAL_EXPECT(idx < samples[j].size());
      configs.push_back(samples[j].configs[idx]);
      targets.push_back(values[idx]);
    }
    Surrogate model(gbt);
    model.fit(space, configs, targets, rng);
    model.set_telemetry(telemetry);
    models_.push_back(std::move(model));
  }
}

double ComponentModelSet::predict(
    std::size_t j, const config::Configuration& component_config) const {
  CEAL_EXPECT(j < models_.size());
  return models_[j].predict(workflow_->app(j).space(), component_config);
}

std::vector<double> ComponentModelSet::predict_many(
    std::size_t j, const ml::FeatureMatrix& rows) const {
  CEAL_EXPECT(j < models_.size());
  return models_[j].predict_many(rows);
}

LowFidelityModel::LowFidelityModel(
    const sim::InSituWorkflow& workflow, Objective objective,
    std::shared_ptr<const ComponentModelSet> components)
    : workflow_(&workflow),
      objective_(objective),
      components_(std::move(components)) {
  CEAL_EXPECT(components_ != nullptr);
  CEAL_EXPECT(components_->component_count() == workflow.component_count());
}

double LowFidelityModel::score(const config::Configuration& joint) const {
  double combined = kCombineSeed;
  for (std::size_t j = 0; j < workflow_->component_count(); ++j) {
    combined = combine(
        combined, components_->predict(j, workflow_->space().slice(joint, j)));
  }
  return combined;
}

std::vector<double> LowFidelityModel::score_many(
    std::span<const config::Configuration> joints) const {
  const PoolScorer scorer(*workflow_, joints,
                          kDefaultPoolChunkRows, nullptr);
  return scorer.low_fidelity_scores(*this);
}

}  // namespace ceal::tuner
