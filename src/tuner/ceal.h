// CEAL — Component-based Ensemble Active Learning (Algorithm 1).
//
// Phase 1 (white-box): train per-component models from m_R charged solo
// runs (or free historical measurements D_hist) and combine them through
// the analytical coupling model into the low-fidelity workflow model M_L.
//
// Phase 2 (black-box): bootstrap a high-fidelity boosted-tree surrogate
// M_H by measuring, per iteration, the m_B pool configurations ranked
// best by the current evaluation model M — M_L at first, switching to
// M_H once its summed top-1/2/3 recall on the fresh batch reaches M_L's
// (model-switch detection, lines 16–24). A random-sample top-up guards
// against a biased low-fidelity model (lines 20–22).
#pragma once

#include "tuner/autotuner.h"

namespace ceal::tuner {

struct CealParams {
  /// Number of refinement iterations I.
  std::size_t iterations = 8;
  /// m0 = m0_fraction * m: upper bound on random samples (rounded to an
  /// even count, minimum 2).
  double m0_fraction = 0.05;
  /// m_R = mR_fraction * m: budget for component runs; ignored (treated
  /// as 0) when historical component measurements are available. The
  /// paper sets m_R between 25% and 75% of m (§6) and shows a flat
  /// optimum across 30-80% (Fig. 13c); 50% is the middle of that range.
  double mR_fraction = 0.5;

  // --- Ablation switches (all on by default; bench_ablation_ceal). ---
  /// Lines 16-24 of Alg. 1: promote M_H once its batch recall matches
  /// M_L's. Off = keep selecting samples with the low-fidelity model.
  bool enable_switch_detection = true;
  /// Lines 20-22: inject extra random samples when M_H looks biased.
  bool enable_random_topup = true;
  /// Final ranking as the conjunction (element-wise max) of M_H and the
  /// calibrated low-fidelity scores. Off = rank by M_H alone, the strict
  /// reading of Alg. 1 line 28.
  bool ensemble_final = true;

  /// Defaults without historical measurements (§6/Fig. 13):
  /// I = 8, m0 = 5% m, m_R = 50% m.
  static CealParams no_history() { return CealParams{}; }

  /// Paper defaults with historical measurements (Fig. 13a):
  /// I = 3, m0 = 15% m, m_R = 0.
  static CealParams with_history() {
    CealParams p;
    p.iterations = 3;
    p.m0_fraction = 0.15;
    p.mR_fraction = 0.0;
    return p;
  }
};

class Ceal final : public AutoTuner {
 public:
  explicit Ceal(CealParams params);

  /// Picks no_history()/with_history() defaults per problem at tune time.
  Ceal() : params_(), auto_params_(true) {}

  std::string name() const override { return "CEAL"; }
  /// m_R >= 1 component rounds plus two workflow runs.
  std::size_t min_charged_budget() const override { return 3; }

  std::unique_ptr<TunerStepper> make_stepper(const TuningProblem& problem,
                                             std::size_t budget_runs,
                                             ceal::Rng& rng) const override;

 private:
  CealParams params_;
  bool auto_params_ = false;
};

}  // namespace ceal::tuner
