// pool-200k: CEAL sessions back to back on LV exec, budget 50, over a
// 200,000-configuration pool, on the large-pool path: quantized
// trainer, compiled predictor, streaming scoring in 8192-row chunks.
// Sessions are driven through AutoTuner::make_stepper / step.
//
// The inputs are the same in every run: one seed's pool and sessions
// run up to 30 % longer or shorter than another's (CEAL's path length
// varies), which would swamp the program's own changes in the ~16
// sessions a run holds. The workload seed is recorded, not used.
#include <memory>

#include "core/parallel.h"
#include "core/rng.h"
#include "harness/batch.h"
#include "harness/workloads.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"

namespace perfbench {

namespace {

namespace telemetry = ceal::telemetry;
namespace tuner = ceal::tuner;

constexpr std::size_t kPoolSize = 200'000;
constexpr std::size_t kComponentSamples = 500;
constexpr std::size_t kBudget = 50;
constexpr std::size_t kChunkRows = 8192;
constexpr int kSetupRepeats = 3;
/// A run repeats this cycle of sessions (rng streams 0..kCycle-1) in
/// whole cycles, so every run times the same mix of sessions.
constexpr std::size_t kCycle = 8;
/// Sessions whose recommendations are checked against the reference.
constexpr std::size_t kCheckedSessions = 3;
/// Roots the pool and the sessions' rng streams.
constexpr std::uint64_t kInputSeed = 0x200000;

struct Inputs {
  ceal::sim::Workload workload = ceal::sim::make_lv();
  tuner::MeasuredPool pool;
  std::vector<tuner::ComponentSamples> components;
};

std::unique_ptr<Inputs> build_inputs(telemetry::Telemetry* tel) {
  auto in = std::make_unique<Inputs>();
  const std::uint64_t pool_seed = derive_seed(kInputSeed, 0);
  {
    telemetry::ScopedCausalSpan span(tel, "sim.measure_pool");
    in->pool = tuner::measure_pool(in->workload.workflow, kPoolSize, pool_seed);
  }
  telemetry::ScopedCausalSpan span(tel, "sim.measure_components");
  in->components = tuner::measure_components(in->workload.workflow,
                                             kComponentSamples, pool_seed + 1);
  return in;
}

class Pool200k final : public BatchWorkload {
 public:
  explicit Pool200k(const Options& options)
      : BatchWorkload(kSetupRepeats, "sessions", 1), options_(options) {}

  void build(telemetry::Telemetry* tel) override {
    inputs_.reset();
    inputs_ = build_inputs(tel);
  }

  /// Runs whole cycles of sessions while at least half a cycle's time
  /// is left (at least one), or exactly `sessions` sessions.
  BatchPhase run(double seconds, std::size_t sessions, SessionLog& log,
                 telemetry::Telemetry* tel, Report& report) override {
    const Inputs& in = *inputs_;
    tuner::TuningProblem problem{&in.workload, tuner::Objective::kExecTime,
                                 &in.pool, &in.components,
                                 /*components_are_history=*/false, {}};
    problem.surrogate_gbt.tree.method = ceal::ml::TreeMethod::kQuantized;
    problem.surrogate_gbt.compile_predictor = true;
    problem.pool_chunk_rows = kChunkRows;
    problem.telemetry = tel;
    const tuner::Ceal ceal_tuner;
    const TimedTuner timed(ceal_tuner, log);
    const auto& truth = in.pool.truth(tuner::Objective::kExecTime);
    const double best = truth[in.pool.best_truth_index(tuner::Objective::kExecTime)];

    BatchPhase phase;
    norm_perf_ = 0.0;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    for (std::size_t i = 0;; ++i) {
      if (sessions > 0 && i >= sessions) break;
      if (sessions == 0 && i > 0 && i % kCycle == 0) {
        const double elapsed = now_s() - t0;
        const double cycle = elapsed / static_cast<double>(i / kCycle);
        if (elapsed + 0.5 * cycle >= seconds) break;
      }
      report.attempt();
      try {
        ceal::Rng rng(derive_seed(kInputSeed, 100 + i % kCycle));
        const tuner::TuneResult result = run_session(timed, problem, kBudget, rng);
        Digest d;
        d.add(static_cast<std::uint64_t>(result.best_predicted_index));
        d.add(static_cast<std::uint64_t>(result.runs_used)).add(result.cost_exec_s);
        for (const std::size_t idx : result.measured_indices) d.add(static_cast<std::uint64_t>(idx));
        phase.digests.push_back(d.hex());
        if (i < kCycle) {
          norm_perf_ += truth[result.best_predicted_index] / best / static_cast<double>(kCycle);
        }
      } catch (const std::exception& e) {
        phase.digests.push_back("error");
        report.fail("session " + std::to_string(i) + " threw: " + e.what());
      }
    }
    phase.wall_s = now_s() - t0;
    phase.cpu_s = process_cpu_s() - cpu0;
    return phase;
  }

  /// The first sessions against the reference digest, every later
  /// cycle against the first.
  double check(const BatchPhase& phase, Report& report) override {
    Digest checked;
    for (std::size_t i = 0; i < kCheckedSessions; ++i) checked.add(phase.digests[i]);
    check_digest(report, options_, "sessions" + std::to_string(kCheckedSessions),
                 checked.hex(), kCheckedSessions);
    for (std::size_t i = kCycle; i < phase.digests.size(); ++i) {
      if (phase.digests[i] != phase.digests[i % kCycle]) {
        report.fail("session " + std::to_string(i) + " differs from its first cycle");
      }
    }
    return norm_perf_;
  }

 private:
  const Options& options_;
  std::unique_ptr<Inputs> inputs_;
  double norm_perf_ = 0.0;  ///< mean over the first cycle
};

}  // namespace

void run_pool_200k(const Options& options, Report& report) {
  // Pool scoring runs on one thread: with several, every 8192-row chunk
  // ends at a barrier that waits for the slowest worker, and on a shared
  // machine session times then moved by 30 % between runs. Results do
  // not depend on the thread count.
  ceal::set_global_thread_pool_threads(1);
  Pool200k(options).drive(options, report);
}

}  // namespace perfbench
