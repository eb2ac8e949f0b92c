// The shared driver of the batch workloads (paper-eval, pool-200k,
// measure-plane): timed set-up repeats, the untraced timed phase and
// its end-to-end metrics, and the traced rerun of the same work with
// its per-layer metrics. A workload supplies only its inputs, its unit
// of work (a grid cell or a session) and its output checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/telemetry.h"
#include "harness/report.h"
#include "harness/timed_tuner.h"
#include "tuner/autotuner.h"

namespace perfbench {

/// A timed phase: one digest per unit, in run order.
struct BatchPhase {
  std::vector<std::string> digests;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class BatchWorkload {
 public:
  /// `unit` names a unit of work in the report ("cells", "sessions");
  /// each unit counts `ops_per_unit` attempted operations.
  BatchWorkload(int setup_repeats, std::string unit, std::uint64_t ops_per_unit)
      : setup_repeats_(setup_repeats), unit_(std::move(unit)),
        ops_per_unit_(ops_per_unit) {}
  virtual ~BatchWorkload() = default;

  /// Builds the inputs, replacing earlier ones; with a telemetry
  /// attached each public call runs inside a harness span.
  virtual void build(ceal::telemetry::Telemetry* tel) = 0;
  /// Runs whole units until about `seconds` have passed, or exactly
  /// `units` units when `units` is nonzero.
  virtual BatchPhase run(double seconds, std::size_t units, SessionLog& log,
                         ceal::telemetry::Telemetry* tel, Report& report) = 0;
  /// Output checks of the phase `run` just returned; returns norm_perf.
  virtual double check(const BatchPhase& phase, Report& report) = 0;
  /// Per-layer figures of the traced phase `run` just returned, beyond
  /// the ones every batch workload reports.
  virtual void traced_layers(LayerMetrics& /*layers*/,
                             const std::vector<SpanRecord>& /*spans*/,
                             const ceal::telemetry::Telemetry& /*tel*/,
                             Report& /*report*/) {}

  /// Set-up, timed phase and checks; then the end-to-end metrics, or in
  /// a traced run the traced rerun and the per-layer metrics.
  void drive(const Options& options, Report& report);

 private:
  int setup_repeats_;
  std::string unit_;
  std::uint64_t ops_per_unit_;
};

/// Runs one session of `tuner` through make_stepper / step to its result.
ceal::tuner::TuneResult run_session(const TimedTuner& tuner,
                                    const ceal::tuner::TuningProblem& problem,
                                    std::size_t budget, ceal::Rng& rng);

}  // namespace perfbench
