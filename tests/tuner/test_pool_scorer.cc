// Pool scoring (tuner/pool_scorer.h): block scores must be bitwise
// equal to the per-row Surrogate::predict / LowFidelityModel::score at
// any block size (including sizes that do not divide the pool and sizes
// larger than it) and any thread count, and every tuner that scores the
// pool must return the identical TuneResult at any block size.
#include "tuner/pool_scorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/telemetry.h"
#include "sim/workloads.h"
#include "ml/dataset.h"
#include "tuner/active_learning.h"
#include "tuner/alph.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/geist.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/random_search.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {
namespace {

// 300 = 7 * 42 + 6, so 7 and 299 leave a short last block; 300 is one
// exact block; 1000 and the 8192 default exceed the pool.
constexpr std::size_t kBlockSizes[] = {1, 7, 299, 300, 1000, 8192};
constexpr std::size_t kThreadCounts[] = {1, 4};

void expect_same_result(const TuneResult& want, const TuneResult& got) {
  ASSERT_EQ(want.best_predicted_index, got.best_predicted_index);
  ASSERT_EQ(want.best_measured_index, got.best_measured_index);
  ASSERT_EQ(want.measured_indices, got.measured_indices);
  ASSERT_EQ(want.model_scores.size(), got.model_scores.size());
  for (std::size_t i = 0; i < want.model_scores.size(); ++i) {
    ASSERT_EQ(want.model_scores[i], got.model_scores[i]) << "row " << i;
  }
}

class PoolScorerTest : public ::testing::Test {
 protected:
  PoolScorerTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 300, 21)),
        comps_(measure_components(wl_.workflow, 100, 22)) {}

  static void TearDownTestSuite() {
    ceal::set_global_thread_pool_threads(0);
  }

  Surrogate fitted_surrogate() const {
    Surrogate surrogate;
    ceal::Rng rng(5);
    const std::span<const config::Configuration> train(pool_.configs.data(),
                                                       40);
    const std::span<const double> targets(
        pool_.measured(Objective::kExecTime).data(), 40);
    surrogate.fit(wl_.workflow.joint_space(), train, targets, rng);
    return surrogate;
  }

  LowFidelityModel low_fidelity() const {
    std::vector<std::vector<std::size_t>> indices(comps_.size());
    for (std::size_t j = 0; j < comps_.size(); ++j) {
      for (std::size_t s = 0; s < comps_[j].size(); ++s) {
        indices[j].push_back(s);
      }
    }
    ceal::Rng rng(9);
    auto components = std::make_shared<const ComponentModelSet>(
        wl_.workflow, Objective::kExecTime, comps_, indices, rng);
    return LowFidelityModel(wl_.workflow, Objective::kExecTime, components);
  }

  TuningProblem problem() {
    return TuningProblem{&wl_, Objective::kExecTime, &pool_, &comps_, true,
                         {}};
  }

  sim::Workload wl_;
  MeasuredPool pool_;
  std::vector<ComponentSamples> comps_;
};

TEST_F(PoolScorerTest, SurrogateScoresBitwiseEqualPerRowPredict) {
  const Surrogate surrogate = fitted_surrogate();
  std::vector<double> want;
  for (const auto& c : pool_.configs) {
    want.push_back(surrogate.predict(wl_.workflow.joint_space(), c));
  }
  for (const std::size_t threads : kThreadCounts) {
    ceal::set_global_thread_pool_threads(threads);
    for (const std::size_t block : kBlockSizes) {
      const PoolScorer scorer(wl_.workflow, pool_.configs, block, nullptr);
      const auto got = scorer.surrogate_scores(surrogate);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "block " << block << ", threads " << threads << ", row " << i;
      }
    }
  }
}

TEST_F(PoolScorerTest, LowFidelityScoresBitwiseEqualPerRowScore) {
  const LowFidelityModel model = low_fidelity();
  std::vector<double> want;
  for (const auto& c : pool_.configs) want.push_back(model.score(c));
  for (const std::size_t threads : kThreadCounts) {
    ceal::set_global_thread_pool_threads(threads);
    for (const std::size_t block : kBlockSizes) {
      const PoolScorer scorer(wl_.workflow, pool_.configs, block, nullptr);
      const auto got = scorer.low_fidelity_scores(model);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "block " << block << ", threads " << threads << ", row " << i;
      }
    }
  }
}

TEST_F(PoolScorerTest, CountsOneChunkPerBlockAndRejectsZeroBlockSize) {
  telemetry::Telemetry tel;
  const PoolScorer scorer(wl_.workflow, pool_.configs, 77, &tel);
  scorer.surrogate_scores(fitted_surrogate());
  EXPECT_EQ(tel.counter("pool.chunks"), 4u);  // 77 + 77 + 77 + 69
  EXPECT_EQ(tel.counter("pool.chunk.rows"), 300u);
  EXPECT_THROW(PoolScorer(wl_.workflow, pool_.configs, 0, nullptr),
               PreconditionError);
}

TEST_F(PoolScorerTest, JointScoresVisitEveryRowOnceInPoolOrder) {
  const PoolScorer scorer(wl_.workflow, pool_.configs, 77, nullptr);
  const config::ConfigSpace& space = wl_.workflow.joint_space();
  std::vector<int> visits(pool_.size(), 0);
  std::size_t next_first = 0;
  const auto scores = scorer.joint_scores(
      [&](std::size_t first, const ml::FeatureMatrix& block) {
        EXPECT_EQ(first, next_first);
        EXPECT_LE(block.size(), 77u);
        next_first = first + block.size();
        std::vector<double> out;
        for (std::size_t i = 0; i < block.size(); ++i) {
          ++visits[first + i];
          const auto want = space.features(pool_.configs[first + i]);
          const auto row = block.row(i);
          EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(),
                                 want.end()))
              << "row " << first + i;
          out.push_back(static_cast<double>(first + i));
        }
        return out;
      });
  EXPECT_EQ(next_first, pool_.size());
  EXPECT_EQ(visits, std::vector<int>(pool_.size(), 1));
  ASSERT_EQ(scores.size(), pool_.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], static_cast<double>(i));
  }
}

TEST_F(PoolScorerTest, CealWithChunkedPoolReturnsIdenticalResult) {
  TuningProblem p = problem();
  Ceal ceal;
  ceal::Rng rng_default(31);
  const TuneResult by_default = ceal.tune(p, 25, rng_default);

  p.pool_chunk_rows = 77;  // does not divide the 300-entry pool
  ceal::Rng rng_chunked(31);
  expect_same_result(by_default, ceal.tune(p, 25, rng_chunked));
}

TEST_F(PoolScorerTest, OtherTunersIndependentOfBlockSize) {
  BayesOptParams bo_ceal;
  bo_ceal.bootstrap_with_low_fidelity = true;
  const RandomSearch rs;
  const Geist geist;
  const ActiveLearning al;
  const Alph alph;
  const BayesOpt bo;
  const BayesOpt bo_with_low_fidelity(bo_ceal);
  for (const AutoTuner* tuner : std::initializer_list<const AutoTuner*>{
           &rs, &geist, &al, &alph, &bo, &bo_with_low_fidelity}) {
    SCOPED_TRACE(tuner->name());
    TuningProblem p = problem();
    ceal::Rng rng_default(17);
    const TuneResult by_default = tuner->tune(p, 25, rng_default);
    p.pool_chunk_rows = 77;
    ceal::Rng rng_chunked(17);
    expect_same_result(by_default, tuner->tune(p, 25, rng_chunked));
  }
}

TEST_F(PoolScorerTest, CealResultIndependentOfThreadCount) {
  const TuningProblem p = problem();
  Ceal ceal;
  std::vector<TuneResult> results;
  for (const std::size_t threads : kThreadCounts) {
    ceal::set_global_thread_pool_threads(threads);
    ceal::Rng rng(31);
    results.push_back(ceal.tune(p, 25, rng));
  }
  expect_same_result(results[0], results[1]);
}

}  // namespace
}  // namespace ceal::tuner
