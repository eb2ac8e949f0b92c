// Measurement-backend chaos and equality tests: the in-process backend
// returns pool rows bitwise; the subprocess backend returns the same
// rows bitwise under clean runs, injected worker crashes, injected
// hangs (hedged stragglers), and full degradation; and a Collector
// session driven through a backend is identical to the inline one.
//
// CEAL_WORKER_BIN (a compile definition from tests/CMakeLists.txt) is
// the build-tree path of the real ceal_worker binary.
#include "measure/backend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "measure/subprocess.h"
#include "sim/workloads.h"
#include "tuner/collector.h"
#include "tuner/measured_pool.h"

namespace ceal::measure {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Scoped environment variable: set on construction, unset on
// destruction (the worker fault-injection hooks travel via environ).
class ScopedEnv {
 public:
  ScopedEnv(const char* key, const std::string& value) : key_(key) {
    ::setenv(key, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(key_); }

 private:
  const char* key_;
};

class MeasureBackendTest : public ::testing::Test {
 protected:
  MeasureBackendTest()
      : wl_(sim::make_lv()),
        pool_(tuner::measure_pool(wl_.workflow, kPoolSize, kPoolSeed)),
        comps_(tuner::measure_components(wl_.workflow, 10, 2)) {}

  // Worker-side pool reconstruction arguments matching pool_.
  static std::vector<std::string> worker_args() {
    return {"--workflow", "LV", "--pool-size", std::to_string(kPoolSize),
            "--pool-seed", std::to_string(kPoolSeed)};
  }

  SubprocessOptions base_options() const {
    SubprocessOptions options;
    options.workers = 2;
    options.worker_bin = CEAL_WORKER_BIN;
    options.worker_args = worker_args();
    options.seed = 7;
    return options;
  }

  // Runs indices [0, n) through `backend` and checks every RawRun is
  // the pool row, bitwise.
  void expect_pool_rows(MeasureBackend& backend, std::size_t n) {
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < n; ++i) batch.push_back(i);
    backend.prefetch(batch);
    for (std::size_t i = 0; i < n; ++i) {
      const RawRun raw = backend.run(i);
      EXPECT_TRUE(bits_equal(raw.exec_s, pool_.exec_s[i])) << "index " << i;
      EXPECT_TRUE(bits_equal(raw.comp_ch, pool_.comp_ch[i])) << "index " << i;
    }
  }

  static constexpr std::size_t kPoolSize = 48;
  static constexpr std::uint32_t kPoolSeed = 11;

  sim::Workload wl_;
  tuner::MeasuredPool pool_;
  std::vector<tuner::ComponentSamples> comps_;
};

TEST_F(MeasureBackendTest, InProcessReturnsPoolRowsBitwise) {
  InProcessBackend backend(pool_);
  EXPECT_STREQ(backend.name(), "inproc");
  expect_pool_rows(backend, pool_.size());
}

TEST_F(MeasureBackendTest, SubprocessCleanRunMatchesPool) {
  SubprocessBackend backend(pool_, base_options());
  EXPECT_STREQ(backend.name(), "subprocess");
  expect_pool_rows(backend, 16);
  const SubprocessStats& stats = backend.stats();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_GE(stats.dispatched, 16u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.local_runs, 0u);
  EXPECT_FALSE(backend.degraded());
}

TEST_F(MeasureBackendTest, RunWithoutPrefetchWorks) {
  // A fault top-up can request an index the batch never announced.
  SubprocessBackend backend(pool_, base_options());
  const RawRun raw = backend.run(5);
  EXPECT_TRUE(bits_equal(raw.exec_s, pool_.exec_s[5]));
  EXPECT_TRUE(bits_equal(raw.comp_ch, pool_.comp_ch[5]));
}

TEST_F(MeasureBackendTest, SurvivesRepeatedWorkerCrashes) {
  // Every worker SIGKILLs itself after serving 2 runs, forever (each
  // respawn crashes again after 2 more). All results must still be the
  // exact pool rows, with restarts and re-queues on the books.
  ScopedEnv crash("CEAL_WORKER_CRASH_AFTER", "2");
  SubprocessBackend backend(pool_, base_options());
  expect_pool_rows(backend, 12);
  const SubprocessStats& stats = backend.stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_GE(stats.restarts, 1u);
  EXPECT_FALSE(backend.degraded());
}

TEST_F(MeasureBackendTest, HedgesOrRestartsPastHungWorkers) {
  // Every worker hangs on its second run request, so each process
  // instance serves exactly one run: with 8 runs and 2 slots, progress
  // is only possible through the hedge/hang-deadline machinery killing
  // and restarting hung workers — whatever the startup interleaving.
  // Every result still matches the pool, and no slot retires (a valid
  // result resets its restart schedule).
  ScopedEnv hang("CEAL_WORKER_HANG_AFTER", "1");
  SubprocessOptions options = base_options();
  options.hedge_after_s = 0.05;
  options.hang_after_s = 0.25;
  options.restart_backoff.initial_s = 0.001;
  options.restart_backoff.max_s = 0.01;
  SubprocessBackend backend(pool_, options);
  expect_pool_rows(backend, 8);
  const SubprocessStats& stats = backend.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_GE(stats.restarts, 1u);
  EXPECT_EQ(stats.retired, 0u);
  EXPECT_FALSE(backend.degraded());
}

TEST_F(MeasureBackendTest, LateHedgeLoserIsNotCountedOrRequeued) {
  // Worker 0 hangs on every run it gets, so each of its runs is served
  // by a hedge twin on worker 1. The runs go one at a time, so the
  // first run worker 0 takes is the one run() is waiting for: run()
  // returns the twin's result while worker 0 still holds the losing
  // copy. Once the hang deadline has passed, the next run() reaps
  // worker 0. That served run must not be counted again or re-queued.
  ScopedEnv hang("CEAL_WORKER_HANG_AFTER", "0:0");
  SubprocessOptions options = base_options();
  options.hedge_after_s = 0.05;
  options.hang_after_s = 0.5;
  options.restart_backoff.initial_s = 0.001;
  options.restart_backoff.max_s = 0.01;
  SubprocessBackend backend(pool_, options);
  std::size_t runs = 0;
  const auto run_next = [&] {
    const RawRun raw = backend.run(runs);
    EXPECT_TRUE(bits_equal(raw.exec_s, pool_.exec_s[runs])) << runs;
    ++runs;
  };
  while (backend.stats().hedges == 0 && runs < kPoolSize - 1) run_next();
  ASSERT_GE(backend.stats().hedges, 1u);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(options.hang_after_s + 0.1));
  run_next();
  const SubprocessStats& stats = backend.stats();
  EXPECT_GE(stats.restarts, 1u);  // worker 0 was reaped past its deadline
  EXPECT_EQ(stats.completed, runs);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_FALSE(backend.degraded());
}

TEST_F(MeasureBackendTest, MissingWorkerBinaryDegradesGracefully) {
  SubprocessOptions options = base_options();
  options.worker_bin = "/nonexistent/ceal_worker";
  options.degrade_after = 2;
  options.restart_backoff.initial_s = 0.001;
  options.restart_backoff.max_s = 0.01;
  SubprocessBackend backend(pool_, options);
  expect_pool_rows(backend, 6);  // still correct — served in-process
  EXPECT_TRUE(backend.degraded());
  const SubprocessStats& stats = backend.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.local_runs, 6u);
}

TEST_F(MeasureBackendTest, CrashLoopingWorkerDegradesGracefully) {
  // /bin/true spawns fine, then exits before saying hello: EOF faults
  // with no success in between exhaust the degrade threshold.
  SubprocessOptions options = base_options();
  options.worker_bin = "/bin/true";
  options.worker_args.clear();
  options.degrade_after = 2;
  options.restart_backoff.initial_s = 0.001;
  options.restart_backoff.max_s = 0.01;
  SubprocessBackend backend(pool_, options);
  expect_pool_rows(backend, 4);
  EXPECT_TRUE(backend.degraded());
  EXPECT_EQ(backend.stats().local_runs, 4u);
}

TEST_F(MeasureBackendTest, PoolMismatchIsRejectedBeforeServingRuns) {
  // Workers that rebuild a *different* pool (seed skew) must never
  // serve a run: their hellos are rejected as faults until the backend
  // degrades, and the degraded results still come from our pool.
  SubprocessOptions options = base_options();
  options.worker_args = {"--workflow", "LV", "--pool-size",
                         std::to_string(kPoolSize), "--pool-seed",
                         std::to_string(kPoolSeed + 1)};
  options.degrade_after = 2;
  options.restart_backoff.initial_s = 0.001;
  options.restart_backoff.max_s = 0.01;
  SubprocessBackend backend(pool_, options);
  expect_pool_rows(backend, 3);
  EXPECT_TRUE(backend.degraded());
  EXPECT_EQ(backend.stats().completed, 0u);
  EXPECT_EQ(backend.stats().local_runs, 3u);
}

// One fixed request schedule with faults and retries enabled, driven
// twice — inline collector vs. a backend-carrying collector. The
// sessions must be bitwise-identical: values, statuses, costs, budget.
class CollectorEqualityTest : public MeasureBackendTest {
 protected:
  struct SessionResult {
    std::vector<std::size_t> indices;
    std::vector<double> values;
    std::vector<sim::RunStatus> statuses;
    std::size_t runs_used = 0;
    double cost_exec_s = 0.0;
    double backoff_total_s = 0.0;
  };

  SessionResult drive(MeasureBackend* backend) {
    tuner::TuningProblem problem;
    problem.workload = &wl_;
    problem.pool = &pool_;
    problem.component_samples = &comps_;
    problem.objective = tuner::Objective::kExecTime;
    problem.measurement.faults.fail_prob = 0.3;
    problem.measurement.max_attempts = 3;
    problem.measure = backend;
    Rng rng(99);
    tuner::Collector collector(problem, /*budget_runs=*/40, &rng);
    // A fixed schedule with batched prefetch hints and repeats.
    const std::vector<std::vector<std::size_t>> batches = {
        {0, 1, 2, 3}, {4, 5, 6, 7}, {2, 8, 9}, {10, 11, 0, 12}};
    for (const auto& batch : batches) {
      collector.prefetch(batch);
      for (const std::size_t index : batch) {
        (void)collector.try_measure(index);
      }
    }
    SessionResult result;
    result.indices = collector.measured_indices();
    result.values = collector.measured_values();
    result.statuses = collector.measured_statuses();
    result.runs_used = collector.runs_used();
    result.cost_exec_s = collector.cost_exec_s();
    result.backoff_total_s = collector.backoff_total_s();
    return result;
  }

  static void expect_identical(const SessionResult& a,
                               const SessionResult& b) {
    ASSERT_EQ(a.indices, b.indices);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      EXPECT_TRUE(bits_equal(a.values[i], b.values[i])) << "entry " << i;
    }
    EXPECT_EQ(a.statuses, b.statuses);
    EXPECT_EQ(a.runs_used, b.runs_used);
    EXPECT_TRUE(bits_equal(a.cost_exec_s, b.cost_exec_s));
    EXPECT_TRUE(bits_equal(a.backoff_total_s, b.backoff_total_s));
  }
};

TEST_F(CollectorEqualityTest, InlineAndInProcessBackendAgree) {
  const SessionResult inline_session = drive(nullptr);
  InProcessBackend inproc(pool_);
  expect_identical(inline_session, drive(&inproc));
}

TEST_F(CollectorEqualityTest, InlineAndSubprocessBackendAgree) {
  const SessionResult inline_session = drive(nullptr);
  SubprocessBackend subprocess(pool_, base_options());
  expect_identical(inline_session, drive(&subprocess));
}

TEST_F(CollectorEqualityTest, InlineAndCrashingSubprocessAgree) {
  const SessionResult inline_session = drive(nullptr);
  ScopedEnv crash("CEAL_WORKER_CRASH_AFTER", "3");
  SubprocessBackend subprocess(pool_, base_options());
  expect_identical(inline_session, drive(&subprocess));
}

TEST_F(CollectorEqualityTest, InlineAndDegradedSubprocessAgree) {
  const SessionResult inline_session = drive(nullptr);
  SubprocessOptions options = base_options();
  options.worker_bin = "/nonexistent/ceal_worker";
  options.degrade_after = 1;
  options.restart_backoff.initial_s = 0.001;
  options.restart_backoff.max_s = 0.01;
  SubprocessBackend subprocess(pool_, options);
  expect_identical(inline_session, drive(&subprocess));
  EXPECT_TRUE(subprocess.degraded());
}

}  // namespace
}  // namespace ceal::measure
