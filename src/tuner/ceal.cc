#include "tuner/ceal.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/error.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "ml/metrics.h"
#include "tuner/checkpoint.h"
#include "tuner/collector.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_scorer.h"
#include "tuner/stepper.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

namespace {

std::size_t rounded_fraction(double fraction, std::size_t total) {
  return static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(total)));
}

}  // namespace

Ceal::Ceal(CealParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.m0_fraction >= 0.0 && params_.m0_fraction < 1.0);
  CEAL_EXPECT(params_.mR_fraction >= 0.0 && params_.mR_fraction < 1.0);
}

namespace {

// Algorithm 1 sliced at its natural boundaries: phase 1 (component
// models + low-fidelity scoring + first queue) as one step, then one
// refinement iteration per step, then the final ensemble ranking.
class CealStepper final : public TunerStepper {
 public:
  CealStepper(const Ceal& algorithm, const CealParams& params,
              const TuningProblem& problem, std::size_t budget_runs,
              ceal::Rng& rng)
      : TunerStepper(problem, budget_runs, rng),
        params_(params),
        collector_(problem_, budget_runs, rng_),
        // Every whole-pool model evaluation below streams the same fixed
        // pool through this scorer in pool_chunk_rows-sized blocks.
        pool_scorer_(problem_.workload->workflow, problem_.pool->configs,
                     problem_.pool_chunk_rows, problem_.telemetry),
        high_fidelity_(problem_.surrogate_gbt) {  // M_H (line 12)
    emit_tune_start(problem_, algorithm, budget_);
  }

  TunerProgress progress() const override {
    TunerProgress progress = collector_progress(collector_);
    progress.model = using_high_fidelity_ ? "high" : "low";
    progress.has_recalls = has_recalls_;
    progress.recall_low = last_recall_low_;
    progress.recall_high = last_recall_high_;
    return progress;
  }

 private:
  enum class Phase { kPhase1, kLoop, kFinal };

  void do_step() override {
    telemetry::Telemetry* tel = problem_.telemetry;
    const std::size_t m = budget_;
    if (phase_ == Phase::kPhase1) {
      const auto& workflow = problem_.workload->workflow;
      // ---- Phase 1: low-fidelity model via component combination (lines
      // 1-6). Historical samples are free; otherwise m_R is charged.
      // Charged rounds leave at least two workflow runs (make_stepper
      // requires a budget of 3).
      const std::size_t m_r =
          problem_.components_are_history
              ? 0
              : std::clamp<std::size_t>(
                    rounded_fraction(params_.mR_fraction, m), 1, m - 2);
      const auto& component_indices =
          component_sample_indices(collector_, m_r, *rng_);
      telemetry::ScopedCausalSpan components_span(tel, "components.fit");
      auto components = std::make_shared<const ComponentModelSet>(
          workflow, problem_.objective, *problem_.component_samples,
          component_indices, *rng_, problem_.surrogate_gbt,
          problem_.telemetry);
      const double components_fit_s = components_span.stop();
      const LowFidelityModel low_fidelity(workflow, problem_.objective,
                                          components);
      telemetry::ScopedCausalSpan low_score_span(tel, "low_fidelity.score");
      low_scores_ = pool_scorer_.low_fidelity_scores(low_fidelity);
      const double low_score_s = low_score_span.stop();

      // ---- Phase 2 set-up: high-fidelity model via dynamic ensemble
      // active learning (lines 7-28).
      m0_ = std::max<std::size_t>(
          2, rounded_fraction(params_.m0_fraction, m));
      if (m0_ % 2 == 1) ++m0_;            // keep m0/2 integral
      m0_ = std::min(m0_, m - m_r);       // never exceed the run budget
      m0_used_ = m0_ / 2;                 // m0' in Alg. 1
      // Alg. 1 line 8 sizes batches as (m - m0 - m_R)/I; we additionally
      // keep batches at >= 3 so the top-1/2/3 recalls of the switch
      // detector carry signal (iterations simply end sooner when the
      // budget runs dry).
      m_b_ = std::max<std::size_t>(
          3, (m - std::min(m, m0_ + m_r)) / params_.iterations);

      if (tel != nullptr) {
        telemetry::TraceEvent event("ceal.phase1");
        event.field("budget", m)
            .field("m_r", m_r)
            .field("m0", m0_)
            .field("m_b", m_b_)
            .field("iterations", params_.iterations)
            .field("history", problem_.components_are_history)
            .timing("components_fit_s", components_fit_s)
            .timing("low_score_s", low_score_s);
        tel->emit(std::move(event));
      }

      // Line 7: m0/2 random samples; lines 9-10: top m_B by the
      // low-fidelity model.
      c_meas_ = random_unmeasured(collector_, m0_used_, *rng_);
      {
        const auto top = top_unmeasured(low_scores_, collector_, m_b_);
        c_meas_.insert(c_meas_.end(), top.begin(), top.end());
      }
      // Scores that queued the pending batch; fault top-up re-selects
      // from them so each iteration still gains its intended number of
      // usable measurements.
      queue_scores_ = low_scores_;
      i_ = 1;
      phase_ = Phase::kLoop;
      return;
    }
    if (phase_ == Phase::kLoop) {
      while (i_ <= params_.iterations) {
        const std::size_t i = i_;
        // Line 14: run the workflow for this iteration's batch. Only
        // successful measurements count towards the batch; failed
        // attempts are topped up from the queueing model's ranking.
        const std::size_t req_start = collector_.measured_indices().size();
        const std::size_t batch_start = collector_.ok_indices().size();
        measure_batch(collector_, c_meas_, queue_scores_, c_meas_.size());
        c_meas_.clear();
        const auto& all_indices = collector_.ok_indices();
        const auto& all_values = collector_.ok_values();
        const std::size_t batch_len = all_indices.size() - batch_start;

        // Per-iteration trace state, filled in as the iteration unfolds
        // and emitted exactly once on every path out of the loop body.
        bool detection_ran = false, switched_now = false;
        double s_high = 0.0, s_low = 0.0, detect_s = 0.0, predict_s = 0.0;
        std::size_t topup_injected = 0;
        const double fit_total_before =
            tel != nullptr ? tel->span_stats("surrogate.fit").total_s : 0.0;
        const auto emit_iteration = [&] {
          if (tel == nullptr) return;
          tel->count("ceal.iterations");
          telemetry::TraceEvent event("ceal.iteration");
          const auto& requested = collector_.measured_indices();
          event.field("iteration", i)
              .field("batch", std::span<const std::size_t>(
                                  requested.data() + req_start,
                                  requested.size() - req_start))
              .field("batch_ok", batch_len)
              .field("batch_values",
                     std::span<const double>(all_values.data() + batch_start,
                                             batch_len))
              .field("model", using_high_fidelity_ ? "high" : "low")
              .field("switched", switched_now)
              .field("topup", topup_injected)
              .field("m_b", m_b_)
              .field("budget_used", collector_.runs_used())
              .field("budget_remaining", collector_.remaining());
          if (detection_ran) {
            event.field("recall_low", s_low).field("recall_high", s_high);
          }
          event
              .timing("fit_s", tel->span_stats("surrogate.fit").total_s -
                                   fit_total_before)
              .timing("detect_s", detect_s)
              .timing("predict_s", predict_s);
          tel->emit(std::move(event));
        };

        if (batch_len == 0) {
          if (collector_.remaining() == 0 ||
              !problem_.measurement.faults.enabled()) {
            emit_iteration();
            break;  // budget spent (or, fault-free, the pool ran dry)
          }
          // Every attempt this iteration failed; re-queue from the
          // low-fidelity ranking and spend the next iteration retrying.
          queue_scores_ = low_scores_;
          c_meas_ = top_unmeasured(low_scores_, collector_, m_b_);
          emit_iteration();
          if (c_meas_.empty()) break;
          ++i_;
          return;  // one iteration per step
        }

        // Lines 16-24: model-switch detection, while still evaluating
        // with the low-fidelity model and once M_H has been trained at
        // least once. Batches smaller than 3 carry no ranking signal
        // (the top-1/2/3 recalls of any two models tie trivially), so
        // detection waits for a meaningful batch.
        if (params_.enable_switch_detection && !using_high_fidelity_ &&
            high_fidelity_.is_fitted() && batch_len >= 3) {
          telemetry::ScopedCausalSpan detect_span(tel, "ceal.switch_detection");
          detection_ran = true;
          const auto& joint_space = problem_.workload->workflow.joint_space();
          const auto& pool_configs = problem_.pool->configs;
          std::vector<double> batch_high(batch_len), batch_low(batch_len),
              batch_meas(batch_len);
          for (std::size_t b = 0; b < batch_len; ++b) {
            const std::size_t idx = all_indices[batch_start + b];
            batch_high[b] =
                high_fidelity_.predict(joint_space, pool_configs[idx]);
            batch_low[b] = low_scores_[idx];
            batch_meas[b] = all_values[batch_start + b];
          }
          s_high = ml::recall_sum_top123(batch_high, batch_meas);
          s_low = ml::recall_sum_top123(batch_low, batch_meas);
          has_recalls_ = true;  // surfaced live via progress()
          last_recall_low_ = s_low;
          last_recall_high_ = s_high;

          // Line 20: bias check — M_H's three favourite measured configs
          // must fall within the better half of all measurements,
          // otherwise top up with random samples.
          std::vector<double> meas_high(all_indices.size());
          for (std::size_t s = 0; s < all_indices.size(); ++s) {
            meas_high[s] = high_fidelity_.predict(
                joint_space, pool_configs[all_indices[s]]);
          }
          const std::size_t top_n =
              std::min<std::size_t>(3, meas_high.size());
          const std::size_t half =
              std::max<std::size_t>(top_n, all_indices.size() / 2);
          auto fav = ml::top_indices(meas_high, top_n);
          auto good = ml::top_indices(all_values, half);
          std::sort(fav.begin(), fav.end());
          std::sort(good.begin(), good.end());
          std::vector<std::size_t> common;
          std::set_intersection(fav.begin(), fav.end(), good.begin(),
                                good.end(), std::back_inserter(common));
          if (params_.enable_random_topup && common.size() < top_n &&
              m0_used_ < m0_) {
            const std::size_t extra = (m0_ - m0_used_) / 2;
            if (extra > 0) {
              const auto randoms = random_unmeasured(collector_, extra, *rng_);
              c_meas_.insert(c_meas_.end(), randoms.begin(), randoms.end());
              m0_used_ += extra;  // line 22
              topup_injected = randoms.size();
              // The top-up draws come off the tuner rng, so journal the
              // stream position alongside the decision: a resumed
              // session must land on exactly the same random injections.
              if (problem_.checkpoint != nullptr) {
                checkpoint_decision(
                    problem_, "ceal.topup",
                    {{"iteration",
                      json::Value::number(static_cast<std::uint64_t>(i))},
                     {"injected",
                      json::Value::number(
                          static_cast<std::uint64_t>(randoms.size()))},
                     {"m0_used", json::Value::number(
                                     static_cast<std::uint64_t>(m0_used_))},
                     {"rng", rng_state_to_json(rng_->state())}});
              }
              if (tel != nullptr) {
                tel->count("ceal.topups");
                telemetry::TraceEvent event("ceal.topup");
                event.field("iteration", i)
                    .field("injected", randoms.size())
                    .field("m0_used", m0_used_);
                tel->emit(std::move(event));
              }
            }
          }

          if (s_high >= s_low) {
            using_high_fidelity_ = true;  // line 24: M <- M_H
            switched_now = true;
            if (i < params_.iterations) {
              m_b_ += (m0_ - m0_used_) / (params_.iterations - i);
            }
            if (problem_.checkpoint != nullptr) {
              checkpoint_decision(
                  problem_, "ceal.switch",
                  {{"iteration",
                    json::Value::number(static_cast<std::uint64_t>(i))},
                   {"m_b",
                    json::Value::number(static_cast<std::uint64_t>(m_b_))}});
            }
            if (tel != nullptr) {
              tel->count("ceal.switched");
              telemetry::TraceEvent event("ceal.switch");
              event.field("iteration", i)
                  .field("recall_low", s_low)
                  .field("recall_high", s_high)
                  .field("m_b", m_b_);
              tel->emit(std::move(event));
            }
          }
          detect_s = detect_span.stop();
        }

        // Line 25: train/refine M_H on all measured data.
        fit_on_measured(high_fidelity_, collector_, *rng_);

        if (collector_.remaining() == 0) {
          emit_iteration();
          break;
        }

        // Lines 26-27: evaluate the pool with M and queue the next batch.
        if (using_high_fidelity_) {
          telemetry::ScopedCausalSpan predict_span(tel, "surrogate.predict");
          auto high_scores = pool_scorer_.surrogate_scores(high_fidelity_);
          predict_s = predict_span.stop();
          const auto top = top_unmeasured(high_scores, collector_, m_b_);
          c_meas_.insert(c_meas_.end(), top.begin(), top.end());
          queue_scores_ = std::move(high_scores);
        } else {
          const auto top = top_unmeasured(low_scores_, collector_, m_b_);
          c_meas_.insert(c_meas_.end(), top.begin(), top.end());
          queue_scores_ = low_scores_;
        }
        emit_iteration();
        ++i_;
        return;  // one iteration per step
      }
      phase_ = Phase::kFinal;
    }

    // Line 28 returns M_H; the searcher, per Fig. 3, consumes the
    // *selected* model — M_H once switch detection has promoted it, the
    // low-fidelity ensemble otherwise (measured configurations always
    // score as their observations, see finalize_result).
    CEAL_ENSURE_MSG(high_fidelity_.is_fitted(),
                    "CEAL collected no workflow samples");

    // The low-fidelity output is only a ranking score (§4); calibrate it
    // to the measurement scale with the median measured/score ratio so it
    // can stand next to real observations and M_H predictions.
    std::vector<double> calibrated_low = low_scores_;
    {
      const auto& indices = collector_.ok_indices();
      const auto& values = collector_.ok_values();
      std::vector<double> ratios;
      ratios.reserve(indices.size());
      for (std::size_t s = 0; s < indices.size(); ++s) {
        if (calibrated_low[indices[s]] > 0.0) {
          ratios.push_back(values[s] / calibrated_low[indices[s]]);
        }
      }
      if (!ratios.empty()) {
        const double factor = ceal::median(ratios);
        for (double& v : calibrated_low) v *= factor;
      }
    }

    // Final ensemble ranking: a configuration only ranks highly when
    // *both* models believe in it (element-wise max of lower-is-better
    // scores). Each model alone suffers a winner's curse over a
    // 2000-entry pool — its single most optimistic extrapolation error
    // wins the argmin; the conjunction suppresses errors that are not
    // shared by both models.
    telemetry::ScopedCausalSpan final_span(tel, "surrogate.predict");
    std::vector<double> scores = pool_scorer_.surrogate_scores(high_fidelity_);
    final_span.stop();
    if (params_.ensemble_final) {
      for (std::size_t i = 0; i < scores.size(); ++i) {
        scores[i] = std::max(scores[i], calibrated_low[i]);
      }
    }
    finish(finalize_result(collector_, std::move(scores)));
  }

  CealParams params_;
  Collector collector_;
  const PoolScorer pool_scorer_;
  Surrogate high_fidelity_;
  std::vector<double> low_scores_;
  std::vector<double> queue_scores_;
  std::vector<std::size_t> c_meas_;
  bool using_high_fidelity_ = false;  // M = M_L (line 11)
  bool has_recalls_ = false;          // a detection pass has run
  double last_recall_low_ = 0.0;      // last s_low / s_high (line 17)
  double last_recall_high_ = 0.0;
  std::size_t m0_ = 0;
  std::size_t m0_used_ = 0;
  std::size_t m_b_ = 0;
  Phase phase_ = Phase::kPhase1;
  std::size_t i_ = 1;
};

}  // namespace

std::unique_ptr<TunerStepper> Ceal::make_stepper(const TuningProblem& problem,
                                                 std::size_t budget_runs,
                                                 ceal::Rng& rng) const {
  const CealParams params =
      auto_params_ ? (problem.components_are_history
                          ? CealParams::with_history()
                          : CealParams::no_history())
                   : params_;
  require_component_budget(problem, *this, budget_runs);
  return std::make_unique<CealStepper>(*this, params, problem, budget_runs,
                                       rng);
}

}  // namespace ceal::tuner
