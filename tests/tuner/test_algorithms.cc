// Contract tests shared by every auto-tuning algorithm, run as a
// parameterized suite: budget discipline, result consistency, and
// determinism.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/error.h"
#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/alph.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/geist.h"
#include "tuner/random_search.h"
#include "tuner/stepper.h"

namespace ceal::tuner {
namespace {

struct Fixture {
  sim::Workload wl = sim::make_lv();
  MeasuredPool pool;
  std::vector<ComponentSamples> comps;

  Fixture()
      : pool(measure_pool(wl.workflow, 300, 11)),
        comps(measure_components(wl.workflow, 60, 12)) {}
};

Fixture& fixture() {
  static Fixture f;  // built once; measuring pools is the slow part
  return f;
}

std::unique_ptr<AutoTuner> make_tuner(const std::string& name) {
  if (name == "RS") return std::make_unique<RandomSearch>();
  if (name == "AL") return std::make_unique<ActiveLearning>();
  if (name == "GEIST") return std::make_unique<Geist>();
  if (name == "ALpH") return std::make_unique<Alph>();
  if (name == "BO") return std::make_unique<BayesOpt>();
  if (name == "BO-CEAL") {
    BayesOptParams params;
    params.bootstrap_with_low_fidelity = true;
    return std::make_unique<BayesOpt>(params);
  }
  return std::make_unique<Ceal>();
}

class AlgorithmContract
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {
 protected:
  TuningProblem problem() {
    auto& f = fixture();
    return TuningProblem{&f.wl, Objective::kExecTime, &f.pool, &f.comps,
                         std::get<1>(GetParam()), {}};
  }

  std::unique_ptr<AutoTuner> tuner() {
    return make_tuner(std::get<0>(GetParam()));
  }
};

TEST_P(AlgorithmContract, RespectsBudget) {
  auto prob = problem();
  ceal::Rng rng(1);
  const auto result = tuner()->tune(prob, 20, rng);
  EXPECT_LE(result.runs_used, 20u);
  EXPECT_GE(result.runs_used, 1u);
}

TEST_P(AlgorithmContract, ScoresCoverWholePool) {
  auto prob = problem();
  ceal::Rng rng(2);
  const auto result = tuner()->tune(prob, 20, rng);
  EXPECT_EQ(result.model_scores.size(), prob.pool->size());
}

TEST_P(AlgorithmContract, BestPredictedIsArgminOfScores) {
  auto prob = problem();
  ceal::Rng rng(3);
  const auto result = tuner()->tune(prob, 20, rng);
  for (const double s : result.model_scores) {
    EXPECT_LE(result.model_scores[result.best_predicted_index], s);
  }
}

TEST_P(AlgorithmContract, MeasuredIndicesAreUniqueAndInRange) {
  auto prob = problem();
  ceal::Rng rng(4);
  const auto result = tuner()->tune(prob, 20, rng);
  std::set<std::size_t> seen(result.measured_indices.begin(),
                             result.measured_indices.end());
  EXPECT_EQ(seen.size(), result.measured_indices.size());
  for (const std::size_t i : result.measured_indices) {
    EXPECT_LT(i, prob.pool->size());
  }
}

TEST_P(AlgorithmContract, MeasuredConfigsScoreAsObservations) {
  auto prob = problem();
  ceal::Rng rng(5);
  const auto result = tuner()->tune(prob, 20, rng);
  const auto& measured = prob.pool->measured(prob.objective);
  for (const std::size_t i : result.measured_indices) {
    EXPECT_DOUBLE_EQ(result.model_scores[i], measured[i]);
  }
}

TEST_P(AlgorithmContract, DeterministicGivenSeed) {
  auto prob = problem();
  ceal::Rng r1(6), r2(6);
  const auto a = tuner()->tune(prob, 15, r1);
  const auto b = tuner()->tune(prob, 15, r2);
  EXPECT_EQ(a.best_predicted_index, b.best_predicted_index);
  EXPECT_EQ(a.measured_indices, b.measured_indices);
  EXPECT_EQ(a.model_scores, b.model_scores);
}

TEST_P(AlgorithmContract, CostsArePositiveAndConsistent) {
  auto prob = problem();
  ceal::Rng rng(7);
  const auto result = tuner()->tune(prob, 20, rng);
  EXPECT_GT(result.cost_exec_s, 0.0);
  EXPECT_GT(result.cost_comp_ch, 0.0);
  // Cost includes at least the measured workflow runs.
  double min_cost = 0.0;
  for (const std::size_t i : result.measured_indices) {
    min_cost += prob.pool->exec_s[i];
  }
  EXPECT_GE(result.cost_exec_s, min_cost - 1e-9);
}

TEST_P(AlgorithmContract, BestMeasuredIsTrulyTheBestMeasurement) {
  auto prob = problem();
  ceal::Rng rng(8);
  const auto result = tuner()->tune(prob, 20, rng);
  const auto& measured = prob.pool->measured(prob.objective);
  for (const std::size_t i : result.measured_indices) {
    EXPECT_LE(measured[result.best_measured_index], measured[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmContract,
    ::testing::Values(std::make_tuple("RS", false),
                      std::make_tuple("AL", false),
                      std::make_tuple("GEIST", false),
                      std::make_tuple("CEAL", false),
                      std::make_tuple("ALpH", true),
                      std::make_tuple("CEAL", true),
                      std::make_tuple("ALpH", false)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_hist" : "_nohist");
    });

TEST(AlgorithmNames, AreStable) {
  EXPECT_EQ(RandomSearch().name(), "RS");
  EXPECT_EQ(ActiveLearning().name(), "AL");
  EXPECT_EQ(Geist().name(), "GEIST");
  EXPECT_EQ(Alph().name(), "ALpH");
  EXPECT_EQ(Ceal().name(), "CEAL");
}

TEST(PoolGraphTest, NeighborsAreSymmetricallySized) {
  auto& f = fixture();
  const PoolGraph graph(f.wl.workflow.joint_space(), f.pool.configs, 5);
  EXPECT_EQ(graph.size(), f.pool.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    EXPECT_EQ(graph.neighbors(i).size(), 5u);
    for (const std::size_t nb : graph.neighbors(i)) {
      EXPECT_NE(nb, i);
      EXPECT_LT(nb, graph.size());
    }
  }
}

TEST(GeistTest, SharedGraphGivesSameResultAsOwnGraph) {
  auto& f = fixture();
  TuningProblem prob{&f.wl, Objective::kExecTime, &f.pool, &f.comps, false, {}};
  GeistParams with_graph;
  with_graph.graph = std::make_shared<PoolGraph>(
      f.wl.workflow.joint_space(), f.pool.configs, with_graph.k_neighbors);
  Geist own{GeistParams{}}, shared{with_graph};
  ceal::Rng r1(9), r2(9);
  EXPECT_EQ(own.tune(prob, 15, r1).best_predicted_index,
            shared.tune(prob, 15, r2).best_predicted_index);
}

// With charged component runs CEAL and BO-CEAL need 3 runs and ALpH 2;
// a smaller budget is refused up front with one message naming the
// algorithm and the minimum, and the minimum itself runs to the end.
TEST(MinimumBudget, ChargedComponentTunersRefuseTooSmallBudgets) {
  auto& f = fixture();
  const TuningProblem charged{&f.wl, Objective::kExecTime, &f.pool, &f.comps,
                              false, {}};
  const std::pair<const char*, std::size_t> minimums[] = {
      {"CEAL", 3}, {"BO-CEAL", 3}, {"ALpH", 2}};
  for (const auto& [name, minimum] : minimums) {
    SCOPED_TRACE(name);
    const auto tuner = make_tuner(name);
    for (std::size_t budget = 1; budget < minimum; ++budget) {
      ceal::Rng rng(1);
      try {
        tuner->make_stepper(charged, budget, rng);
        ADD_FAILURE() << "budget " << budget << " accepted";
      } catch (const PreconditionError& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string(name) + " needs a budget of at least " +
                      std::to_string(minimum) +
                      " runs when component runs are charged (got " +
                      std::to_string(budget) + ")");
      }
    }
    ceal::Rng rng(1);
    EXPECT_LE(tuner->tune(charged, minimum, rng).runs_used, minimum);
  }
}

// ALpH and BO build every model they fit (ALpH's M'_0 and component
// models, BO's ensemble members, BO-CEAL's component models) from the
// problem's surrogate_gbt, so a binned trainer changes their scores.
TEST(SurrogateParams, AlphAndBoFitWithTheProblemsTrainer) {
  auto& f = fixture();
  const TuningProblem exact{&f.wl, Objective::kExecTime, &f.pool, &f.comps,
                            false, {}};
  TuningProblem binned = exact;
  binned.surrogate_gbt.tree.method = ml::TreeMethod::kQuantized;
  binned.surrogate_gbt.tree.max_bins = 4;
  for (const char* name : {"ALpH", "BO", "BO-CEAL"}) {
    SCOPED_TRACE(name);
    const auto tuner = make_tuner(name);
    ceal::Rng r1(5), r2(5);
    EXPECT_NE(tuner->tune(exact, 20, r1).model_scores,
              tuner->tune(binned, 20, r2).model_scores);
  }
}

// Step slicing is part of the serving contract: ceal_serve reports
// steps_taken() as "steps", and clients pace sessions by step count.
// Pins the budget used after every step (ALpH's component step, the
// warm-up, one refinement iteration per step, the final scoring) at
// budget 40, with and without injected faults.
TEST(StepSlicing, BudgetUsedPerStepIsPinned) {
  struct Case {
    const char* algorithm;
    bool faults;
    std::vector<std::size_t> budget_used;
  };
  const Case cases[] = {
      {"AL", false, {10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 40}},
      {"AL", true, {10, 13, 17, 21, 26, 29, 33, 37, 40, 40}},
      {"ALpH", false, {20, 30, 33, 36, 39, 40, 40}},
      {"ALpH", true, {20, 30, 33, 37, 40, 40}},
      {"GEIST", false, {10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 40}},
      {"GEIST", true, {10, 13, 17, 21, 26, 29, 33, 37, 40, 40}},
      {"BO", false, {10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 40}},
      {"BO", true, {10, 13, 17, 21, 26, 29, 33, 37, 40, 40}},
      {"BO-CEAL", false, {30, 33, 36, 39, 40, 40}},
      {"BO-CEAL", true, {30, 33, 37, 40, 40}},
  };
  auto& f = fixture();
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algorithm) + (c.faults ? " faults" : ""));
    TuningProblem prob{&f.wl, Objective::kExecTime, &f.pool, &f.comps, false,
                       {}};
    if (c.faults) prob.measurement.faults.fail_prob = 0.3;
    ceal::Rng rng(3);
    const auto tuner = make_tuner(c.algorithm);
    const auto stepper = tuner->make_stepper(prob, 40, rng);
    std::vector<std::size_t> used;
    do {
      stepper->step();
      used.push_back(stepper->progress().budget_used);
    } while (!stepper->done());
    EXPECT_EQ(stepper->steps_taken(), c.budget_used.size());
    EXPECT_EQ(used, c.budget_used);
  }
}

}  // namespace
}  // namespace ceal::tuner
