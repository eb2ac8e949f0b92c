#include "tuner/bayes_opt.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/error.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "ml/dataset.h"
#include "ml/gbt.h"
#include "tuner/low_fidelity.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

namespace {

/// Bootstrapped boosted-tree ensemble over log targets.
class Ensemble {
 public:
  /// `gbt` configures every member; the rounds are overridden to 80,
  /// since the ensemble amortises them.
  Ensemble(std::size_t members, const ml::GbtParams& gbt, ceal::Rng& rng)
      : members_(members), params_(gbt), rng_(&rng) {
    CEAL_EXPECT(members >= 2);
    params_.n_rounds = 80;
  }

  void fit(const config::ConfigSpace& space,
           const std::vector<config::Configuration>& configs,
           std::span<const double> targets) {
    CEAL_EXPECT(!configs.empty());
    models_.clear();
    models_.reserve(members_);
    const std::size_t n = configs.size();
    for (std::size_t k = 0; k < members_; ++k) {
      ml::Dataset data(space.dimension());
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pick = rng_->uniform_u64(n);  // bootstrap
        CEAL_EXPECT(targets[pick] > 0.0);
        data.add(space.features(configs[pick]), std::log(targets[pick]));
      }
      ml::GradientBoostedTrees model(params_);
      model.fit(data, *rng_);
      models_.push_back(std::move(model));
    }
  }

  /// mu - kappa * sigma for every pool row, from the ensemble's mean
  /// and standard deviation in *time* units; kappa = 0 is the mean.
  std::vector<double> lower_bounds(const PoolScorer& scorer,
                                   double kappa) const {
    return scorer.joint_scores(
        [&](std::size_t, const ml::FeatureMatrix& block) {
          std::vector<std::vector<double>> member_preds;
          member_preds.reserve(models_.size());
          for (const auto& model : models_) {
            member_preds.push_back(model.predict_matrix(block));
          }
          std::vector<double> out(block.size());
          std::vector<double> preds(models_.size());
          for (std::size_t i = 0; i < block.size(); ++i) {
            for (std::size_t k = 0; k < models_.size(); ++k) {
              preds[k] = std::exp(member_preds[k][i]);
            }
            const double mu = ceal::mean(preds);
            out[i] = kappa == 0.0 ? mu : mu - kappa * ceal::stddev(preds);
          }
          return out;
        });
  }

 private:
  std::size_t members_;
  ml::GbtParams params_;
  ceal::Rng* rng_;
  std::vector<ml::GradientBoostedTrees> models_;
};

}  // namespace

BayesOpt::BayesOpt(BayesOptParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
  CEAL_EXPECT(params_.ensemble_size >= 2);
  CEAL_EXPECT(params_.kappa >= 0.0);
  CEAL_EXPECT(params_.mR_fraction >= 0.0 && params_.mR_fraction < 1.0);
}

namespace {

// BO: the shared refinement loop around the bootstrapped ensemble, with
// an LCB acquisition; BO-CEAL seeds the initial design from the
// low-fidelity model.
class BayesOptStepper final : public RefinementStepper {
 public:
  BayesOptStepper(const BayesOpt& algorithm, const BayesOptParams& params,
                  const TuningProblem& problem, std::size_t budget_runs,
                  ceal::Rng& rng)
      : RefinementStepper(algorithm, "bo.iteration", params.iterations,
                          params.init_fraction, problem, budget_runs, rng),
        params_(params),
        ensemble_(params_.ensemble_size, problem_.surrogate_gbt, *rng_) {}

 private:
  std::vector<std::size_t> initial_design(std::size_t count) override {
    if (!params_.bootstrap_with_low_fidelity) {
      return RefinementStepper::initial_design(count);
    }
    const auto& workflow = problem_.workload->workflow;
    // Charged rounds leave at least two workflow runs (make_stepper
    // requires a budget of 3).
    const std::size_t m_r =
        problem_.components_are_history
            ? 0
            : std::clamp<std::size_t>(
                  static_cast<std::size_t>(std::llround(
                      params_.mR_fraction * static_cast<double>(budget_))),
                  1, budget_ - 2);
    auto components = std::make_shared<const ComponentModelSet>(
        workflow, problem_.objective, *problem_.component_samples,
        component_sample_indices(collector_, m_r, *rng_), *rng_,
        problem_.surrogate_gbt);
    const LowFidelityModel low_fidelity(workflow, problem_.objective,
                                        components);
    const auto low_scores = pool_scorer_.low_fidelity_scores(low_fidelity);
    return top_unmeasured(low_scores, collector_,
                          std::min(count, collector_.remaining()));
  }

  double refit() {
    telemetry::Telemetry* tel = problem_.telemetry;
    if (tel != nullptr) tel->count("surrogate.fits");
    telemetry::ScopedCausalSpan span(tel, "surrogate.fit");
    std::vector<config::Configuration> configs;
    for (const std::size_t i : collector_.ok_indices()) {
      configs.push_back(problem_.pool->configs[i]);
    }
    ensemble_.fit(problem_.workload->workflow.joint_space(), configs,
                  collector_.ok_values());
    return span.stop();
  }

  // LCB acquisition: optimistic lower bound, lower = more attractive.
  Refinement refine() override {
    Refinement out;
    out.fit_s = refit();
    telemetry::ScopedCausalSpan span(problem_.telemetry, "surrogate.predict");
    out.scores = ensemble_.lower_bounds(pool_scorer_, params_.kappa);
    out.predict_s = span.stop();
    return out;
  }

  // Final ranking uses the ensemble mean (no exploration bonus).
  std::vector<double> final_scores() override {
    refit();
    telemetry::ScopedCausalSpan span(problem_.telemetry, "surrogate.predict");
    return ensemble_.lower_bounds(pool_scorer_, 0.0);
  }

  BayesOptParams params_;
  Ensemble ensemble_;
};

}  // namespace

std::unique_ptr<TunerStepper> BayesOpt::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  require_component_budget(problem, *this, budget_runs);
  return std::make_unique<BayesOptStepper>(*this, params_, problem,
                                           budget_runs, rng);
}

}  // namespace ceal::tuner
