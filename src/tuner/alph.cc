#include "tuner/alph.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/error.h"
#include "core/telemetry.h"
#include "ml/dataset.h"
#include "ml/gbt.h"
#include "tuner/low_fidelity.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

Alph::Alph(AlphParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
  CEAL_EXPECT(params_.component_fraction >= 0.0 &&
              params_.component_fraction < 1.0);
}

namespace {

// ALpH: the shared refinement loop around a boosted-tree model M'_0 over
// joint features augmented with the component models' predictions. The
// component models are trained in a preparation step of their own.
class AlphStepper final : public RefinementStepper {
 public:
  AlphStepper(const Alph& algorithm, const AlphParams& params,
              const TuningProblem& problem, std::size_t budget_runs,
              ceal::Rng& rng)
      : RefinementStepper(algorithm, "alph.iteration", params.iterations,
                          params.init_fraction, problem, budget_runs, rng),
        params_(params),
        model_(problem_.surrogate_gbt),
        component_columns_(problem_.workload->workflow.component_count(),
                           problem_.pool->size()) {}

 private:
  // Component models (free history when available, otherwise charged
  // runs), then their predictions for every pool row, computed once.
  bool prepare() override {
    const auto& workflow = problem_.workload->workflow;
    const auto rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               params_.component_fraction * static_cast<double>(budget_))));
    const ComponentModelSet components(
        workflow, problem_.objective, *problem_.component_samples,
        component_sample_indices(collector_, rounds, *rng_), *rng_,
        problem_.surrogate_gbt, problem_.telemetry);
    for (std::size_t j = 0; j < components.component_count(); ++j) {
      pool_scorer_.component_predictions(
          components, j, [&](std::size_t row, double prediction) {
            component_columns_.mutable_row(row)[j] = prediction;
          });
    }
    return true;
  }

  // Same log-target treatment as Surrogate (times span decades). Only
  // successful measurements train the model — failed entries carry no
  // value, and the positivity guard keeps NaN/Inf out of the fit.
  double fit() {
    telemetry::Telemetry* tel = problem_.telemetry;
    if (tel != nullptr) tel->count("surrogate.fits");
    telemetry::ScopedCausalSpan span(tel, "surrogate.fit");
    const auto& space = problem_.workload->workflow.joint_space();
    const auto& indices = collector_.ok_indices();
    const auto& values = collector_.ok_values();
    ml::Dataset data(space.dimension() + component_columns_.n_features());
    for (std::size_t s = 0; s < indices.size(); ++s) {
      CEAL_EXPECT(std::isfinite(values[s]) && values[s] > 0.0);
      std::vector<double> row =
          space.features(problem_.pool->configs[indices[s]]);
      const auto extra = component_columns_.row(indices[s]);
      row.insert(row.end(), extra.begin(), extra.end());
      data.add(row, std::log(values[s]));
    }
    model_.fit(data, *rng_);
    return span.stop();
  }

  Refinement refine() override {
    Refinement out;
    out.fit_s = fit();
    telemetry::ScopedCausalSpan span(problem_.telemetry, "surrogate.predict");
    out.scores = pool_scorer_.joint_scores(
        [&](std::size_t first, const ml::FeatureMatrix& joint) {
          ml::FeatureMatrix rows(
              joint.n_features() + component_columns_.n_features(),
              joint.size());
          for (std::size_t i = 0; i < joint.size(); ++i) {
            const auto features = joint.row(i);
            const auto extra = component_columns_.row(first + i);
            const auto row = rows.mutable_row(i);
            std::copy(features.begin(), features.end(), row.begin());
            std::copy(extra.begin(), extra.end(),
                      row.begin() + features.size());
          }
          std::vector<double> scores = model_.predict_matrix(rows);
          for (double& score : scores) score = std::exp(score);
          return scores;
        });
    out.predict_s = span.stop();
    return out;
  }

  AlphParams params_;
  ml::GradientBoostedTrees model_;
  /// Row i: every component model's prediction for pool row i.
  ml::FeatureMatrix component_columns_;
};

}  // namespace

std::unique_ptr<TunerStepper> Alph::make_stepper(const TuningProblem& problem,
                                                 std::size_t budget_runs,
                                                 ceal::Rng& rng) const {
  require_component_budget(problem, *this, budget_runs);
  return std::make_unique<AlphStepper>(*this, params_, problem, budget_runs,
                                       rng);
}

}  // namespace ceal::tuner
