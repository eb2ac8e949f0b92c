// paper-eval: the fig5 grid — RS, GEIST, AL and CEAL on the LV/HS/GP
// 2000-configuration paper pools at the fig5 budgets, no history, the
// default exact trainer — through tuner::evaluate on a ThreadPool of
// nproc workers. The workload seed is the evaluation seed.
#include <memory>
#include <stdexcept>

#include "core/thread_pool.h"
#include "harness/batch.h"
#include "harness/workloads.h"
#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"
#include "tuner/geist.h"
#include "tuner/random_search.h"

namespace perfbench {

namespace {

using ceal::tuner::EvalSummary;
using ceal::tuner::Objective;
namespace telemetry = ceal::telemetry;
namespace tuner = ceal::tuner;

// The paper pools of bench/common.h.
constexpr std::size_t kPoolSize = 2000;
constexpr std::size_t kComponentSamples = 500;
constexpr std::size_t kNeighbors = 10;
constexpr std::uint64_t kPoolSeed = 20211114;
constexpr std::uint64_t kComponentSeed = 20211119;
/// Replications per cell. Fixed, so a cell's summary is a function of
/// the seed alone and its digest can be checked.
constexpr std::size_t kReplications = 8;
constexpr int kSetupRepeats = 9;

struct Env {
  std::vector<ceal::sim::Workload> workloads;
  std::vector<tuner::MeasuredPool> pools;
  std::vector<std::vector<tuner::ComponentSamples>> components;
  std::vector<std::shared_ptr<const tuner::PoolGraph>> graphs;
};

/// Builds the three pools, component samples and GEIST graphs; with a
/// telemetry attached each public call runs inside a harness span.
Env build_env(telemetry::Telemetry* tel) {
  Env env;
  env.workloads = ceal::sim::make_all_workloads();
  for (const auto& wl : env.workloads) {
    {
      telemetry::ScopedCausalSpan span(tel, "sim.measure_pool");
      env.pools.push_back(tuner::measure_pool(wl.workflow, kPoolSize, kPoolSeed));
    }
    {
      telemetry::ScopedCausalSpan span(tel, "sim.measure_components");
      env.components.push_back(tuner::measure_components(
          wl.workflow, kComponentSamples, kComponentSeed));
    }
    telemetry::ScopedCausalSpan span(tel, "tuner.pool_graph");
    env.graphs.push_back(std::make_shared<const tuner::PoolGraph>(
        wl.workflow.joint_space(), env.pools.back().configs, kNeighbors));
  }
  return env;
}

struct Cell {
  std::size_t w;
  Objective objective;
  std::size_t budget;
  std::string algorithm;
};

std::vector<Cell> fig5_cells(const Env& env) {
  const auto index_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < env.workloads.size(); ++i) {
      if (env.workloads[i].workflow.name() == name) return i;
    }
    throw std::runtime_error("unknown workflow " + name);
  };
  struct Panel {
    const char* wf;
    Objective objective;
    std::size_t budgets[2];
  };
  const Panel panels[] = {
      {"LV", Objective::kExecTime, {50, 100}},
      {"LV", Objective::kComputerTime, {25, 50}},
      {"HS", Objective::kExecTime, {50, 100}},
      {"HS", Objective::kComputerTime, {25, 50}},
      {"GP", Objective::kComputerTime, {25, 50}},
  };
  std::vector<Cell> cells;
  for (const auto& panel : panels) {
    for (const std::size_t budget : panel.budgets) {
      for (const char* algo : {"RS", "GEIST", "AL", "CEAL"}) {
        cells.push_back({index_of(panel.wf), panel.objective, budget, algo});
      }
    }
  }
  return cells;
}

std::unique_ptr<tuner::AutoTuner> make_algorithm(const Env& env,
                                                 const Cell& cell) {
  if (cell.algorithm == "RS") return std::make_unique<tuner::RandomSearch>();
  if (cell.algorithm == "AL") return std::make_unique<tuner::ActiveLearning>();
  if (cell.algorithm == "GEIST") {
    tuner::GeistParams params;
    params.graph = env.graphs[cell.w];
    return std::make_unique<tuner::Geist>(params);
  }
  return std::make_unique<tuner::Ceal>();
}

std::string summary_digest(const EvalSummary& s) {
  Digest d;
  d.add(s.algorithm).add(s.workload).add(s.budget).add(s.mean_norm_perf);
  d.add(s.mean_cost_exec_s).add(s.mean_runs_used).add(s.mean_mdape_all);
  return d.hex();
}

class PaperEval final : public BatchWorkload {
 public:
  explicit PaperEval(const Options& options)
      : BatchWorkload(kSetupRepeats, "cells", kReplications), options_(options) {}

  void build(telemetry::Telemetry* tel) override {
    env_.reset();
    env_ = std::make_unique<Env>(build_env(tel));
    if (grid_.empty()) grid_ = fig5_cells(*env_);
  }

  /// Runs whole passes over the grid: as many as fit in `seconds` (a
  /// pass starts while at least half a pass's time is left; at least
  /// one), or exactly `cells` cells. Whole passes keep the mix of
  /// algorithms and budgets the same in every run.
  BatchPhase run(double seconds, std::size_t cells, SessionLog& log,
                 telemetry::Telemetry* tel, Report& report) override {
    ceal::ThreadPool pool(cpu_count());
    BatchPhase phase;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    double norm_sum = 0.0;
    for (std::size_t i = 0;; ++i) {
      if (cells > 0 && i >= cells) break;
      if (cells == 0 && i > 0 && i % grid_.size() == 0) {
        const double elapsed = now_s() - t0;
        const double pass = elapsed / static_cast<double>(i / grid_.size());
        if (elapsed + 0.5 * pass >= seconds) break;
      }
      const Cell& cell = grid_[i % grid_.size()];
      const auto algo = make_algorithm(*env_, cell);
      const TimedTuner timed(*algo, log);
      tuner::TuningProblem problem{&env_->workloads[cell.w], cell.objective,
                                   &env_->pools[cell.w], &env_->components[cell.w],
                                   /*components_are_history=*/false, {}};
      problem.telemetry = tel;
      report.attempt(kReplications);
      try {
        const EvalSummary s = tuner::evaluate(problem, timed, cell.budget,
                                              kReplications, options_.seed, &pool);
        phase.digests.push_back(summary_digest(s));
        if (i < grid_.size()) norm_sum += s.mean_norm_perf;
      } catch (const std::exception& e) {
        phase.digests.push_back("error");
        report.fail("cell " + std::to_string(i % grid_.size()) + " threw: " + e.what(),
                    kReplications);
      }
    }
    phase.wall_s = now_s() - t0;
    phase.cpu_s = process_cpu_s() - cpu0;
    first_pass_norm_perf_ = norm_sum / static_cast<double>(grid_.size());
    return phase;
  }

  /// The first pass against the reference digest, every later pass
  /// against the first.
  double check(const BatchPhase& phase, Report& report) override {
    Digest grid_digest;
    for (std::size_t i = 0; i < grid_.size(); ++i) grid_digest.add(phase.digests[i]);
    check_digest(report, options_, "cells_r" + std::to_string(kReplications),
                 grid_digest.hex(), grid_.size() * kReplications);
    for (std::size_t i = grid_.size(); i < phase.digests.size(); ++i) {
      if (phase.digests[i] != phase.digests[i % grid_.size()]) {
        report.fail("cell " + std::to_string(i % grid_.size()) + " differs between passes",
                    kReplications);
      }
    }
    report.note(std::to_string(phase.digests.size()) + " cells x " +
                std::to_string(kReplications) + " replications on " +
                std::to_string(cpu_count()) + " threads");
    return first_pass_norm_perf_;
  }

 private:
  const Options& options_;
  std::unique_ptr<Env> env_;
  std::vector<Cell> grid_;
  double first_pass_norm_perf_ = 0.0;
};

}  // namespace

void run_paper_eval(const Options& options, Report& report) {
  PaperEval(options).drive(options, report);
}

}  // namespace perfbench
