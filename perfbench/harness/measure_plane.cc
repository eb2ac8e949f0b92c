// measure-plane: CEAL sessions on LV exec, budget 100, pool 2000, each
// with its own SubprocessBackend of nproc - 1 ceal_worker processes (as
// `ceal_tune --measure-backend subprocess`). One session in eight runs
// with injected worker crashes (CEAL_WORKER_CRASH_AFTER). Results must
// be bitwise equal to the same session in-process.
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>

#include "core/rng.h"
#include "harness/batch.h"
#include "harness/workloads.h"
#include "measure/subprocess.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"

namespace perfbench {

namespace {

namespace measure = ceal::measure;
namespace telemetry = ceal::telemetry;
namespace tuner = ceal::tuner;

constexpr std::size_t kPoolSize = 2000;
constexpr std::size_t kComponentSamples = 500;
constexpr std::size_t kBudget = 100;
constexpr int kSetupRepeats = 41;
/// Sessions every run completes and compares with the in-process
/// backend; they give the reference digest and norm_perf.
constexpr std::size_t kCheckedSessions = 16;
constexpr std::size_t kCrashEvery = 8;
/// In a crash-injected session every worker process kills itself on
/// run request kCrashSpread / workers + 1. A session measures at least
/// 42 pool rows (42-46 over seeds 1-12), more than the workers serve
/// below that threshold, so at least one worker crashes and restarts
/// however the requests spread over the workers. (Crashing one chosen
/// worker is not enough: on a busy host it can get too few requests.)
constexpr std::size_t kCrashSpread = 30;

struct Inputs {
  ceal::sim::Workload workload = ceal::sim::make_lv();
  std::uint64_t pool_seed = 0;
  tuner::MeasuredPool pool;
  std::vector<tuner::ComponentSamples> components;
};

std::unique_ptr<Inputs> build_inputs(std::uint64_t seed,
                                     telemetry::Telemetry* tel) {
  auto in = std::make_unique<Inputs>();
  in->pool_seed = derive_seed(seed, 0) % 1'000'000'000;
  {
    telemetry::ScopedCausalSpan span(tel, "sim.measure_pool");
    in->pool = tuner::measure_pool(in->workload.workflow, kPoolSize, in->pool_seed);
  }
  telemetry::ScopedCausalSpan span(tel, "sim.measure_components");
  in->components = tuner::measure_components(in->workload.workflow,
                                             kComponentSamples, in->pool_seed + 1);
  return in;
}

/// Times the backend calls of the traced run from outside: the first
/// call of a session starts the worker processes (measure.spawn), run()
/// blocks until a result is back (measure.run).
class TracedBackend final : public measure::MeasureBackend {
 public:
  TracedBackend(measure::MeasureBackend& inner, telemetry::Telemetry* tel)
      : inner_(inner), tel_(tel) {}
  const char* name() const override { return inner_.name(); }
  void prefetch(std::span<const std::size_t> indices) override {
    telemetry::ScopedCausalSpan span(tel_, first_name("measure.prefetch"));
    inner_.prefetch(indices);
  }
  measure::RawRun run(std::size_t pool_index) override {
    telemetry::ScopedCausalSpan span(tel_, first_name("measure.run"));
    return inner_.run(pool_index);
  }

 private:
  const char* first_name(const char* name) {
    if (started_) return name;
    started_ = true;
    return "measure.spawn";
  }
  measure::MeasureBackend& inner_;
  telemetry::Telemetry* tel_;
  bool started_ = false;
};

std::string result_digest(const tuner::TuneResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.best_predicted_index));
  d.add(static_cast<std::uint64_t>(r.runs_used)).add(r.cost_exec_s).add(r.cost_comp_ch);
  for (const std::size_t idx : r.measured_indices) d.add(static_cast<std::uint64_t>(idx));
  for (const double s : r.model_scores) d.add(s);
  return d.hex();
}

tuner::TuningProblem make_problem(const Inputs& in) {
  return tuner::TuningProblem{&in.workload, tuner::Objective::kExecTime,
                              &in.pool, &in.components,
                              /*components_are_history=*/false, {}};
}

/// The in-process twin of session `i`: same problem, no backend.
tuner::TuneResult in_process(const Inputs& in, std::uint64_t seed, std::size_t i) {
  ceal::Rng rng(derive_seed(seed, 100 + i));
  return tuner::Ceal().tune(make_problem(in), kBudget, rng);
}

class MeasurePlane final : public BatchWorkload {
 public:
  explicit MeasurePlane(const Options& options)
      : BatchWorkload(kSetupRepeats, "sessions", 1), options_(options) {}

  void build(telemetry::Telemetry* tel) override {
    inputs_.reset();
    inputs_ = build_inputs(options_.seed, tel);
  }

  /// Runs sessions until `seconds` have passed and at least
  /// kCheckedSessions ran, or exactly `sessions` sessions.
  BatchPhase run(double seconds, std::size_t sessions, SessionLog& log,
                 telemetry::Telemetry* tel, Report& report) override {
    const Inputs& in = *inputs_;
    tuner::TuningProblem problem = make_problem(in);
    problem.telemetry = tel;
    const tuner::Ceal ceal_tuner;
    const TimedTuner timed(ceal_tuner, log);
    measure::SubprocessOptions base;
    base.workers = std::max<std::size_t>(1, cpu_count() - 1);
    base.worker_bin = options_.bin_dir + "/ceal_worker";
    base.worker_args = {"--workflow", "LV", "--pool-size", std::to_string(kPoolSize),
                        "--pool-seed", std::to_string(in.pool_seed)};
    const std::string crash_after =
        std::to_string(std::max<std::size_t>(1, kCrashSpread / base.workers));

    BatchPhase phase;
    checked_.clear();
    crashed_.clear();
    stats_ = {};
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    for (std::size_t i = 0;; ++i) {
      if (sessions > 0 ? i >= sessions
                       : i >= kCheckedSessions && now_s() - t0 >= seconds) {
        break;
      }
      const bool crash = i % kCrashEvery == kCrashEvery - 1;
      report.attempt();
      if (crash) setenv("CEAL_WORKER_CRASH_AFTER", crash_after.c_str(), 1);
      try {
        const std::uint64_t session_seed = derive_seed(options_.seed, 100 + i);
        measure::SubprocessOptions mopts = base;
        mopts.seed = session_seed;
        measure::SubprocessBackend backend(in.pool, std::move(mopts), tel);
        std::optional<TracedBackend> traced;
        if (tel != nullptr) traced.emplace(backend, tel);
        problem.measure = traced ? static_cast<measure::MeasureBackend*>(&*traced)
                                 : &backend;
        ceal::Rng rng(session_seed);
        tuner::TuneResult result = run_session(timed, problem, kBudget, rng);
        const auto& s = backend.stats();
        stats_.dispatched += s.dispatched;
        stats_.completed += s.completed;
        stats_.hedges += s.hedges;
        stats_.hedge_wasted += s.hedge_wasted;
        stats_.restarts += s.restarts;
        if (crash && s.restarts == 0) {
          report.fail("session " + std::to_string(i) +
                      " ran with injected worker crashes but no worker restarted");
        }
        phase.digests.push_back(result_digest(result));
        if (i < kCheckedSessions) {
          checked_.push_back(std::move(result));
        } else if (crash) {
          crashed_.emplace_back(i, std::move(result));
        }
      } catch (const std::exception& e) {
        phase.digests.push_back("error");
        report.fail("session " + std::to_string(i) + " threw: " + e.what());
      }
      if (crash) unsetenv("CEAL_WORKER_CRASH_AFTER");
    }
    phase.wall_s = now_s() - t0;
    phase.cpu_s = process_cpu_s() - cpu0;
    return phase;
  }

  /// The first kCheckedSessions and every crash-injected session are
  /// compared bitwise with the in-process backend; the first also with
  /// the reference digest.
  double check(const BatchPhase& phase, Report& report) override {
    std::size_t compared = 0;
    const auto compare = [&](std::size_t i, const tuner::TuneResult& got) {
      ++compared;
      if (result_digest(got) != result_digest(in_process(*inputs_, options_.seed, i))) {
        report.fail("session " + std::to_string(i) + " differs from the in-process backend");
      }
    };
    for (std::size_t i = 0; i < checked_.size(); ++i) compare(i, checked_[i]);
    for (const auto& [i, result] : crashed_) compare(i, result);
    Digest checked;
    for (std::size_t i = 0; i < kCheckedSessions; ++i) checked.add(phase.digests[i]);
    check_digest(report, options_, "sessions" + std::to_string(kCheckedSessions),
                 checked.hex(), kCheckedSessions);
    std::ostringstream os;
    os << compared << " sessions compared bitwise with the in-process backend; "
       << phase.digests.size() / kCrashEvery << " with injected worker crashes, "
       << stats_.restarts << " worker restarts";
    report.note(os.str());

    const auto& truth = inputs_->pool.truth(tuner::Objective::kExecTime);
    const double best = truth[inputs_->pool.best_truth_index(tuner::Objective::kExecTime)];
    double norm = 0.0;
    for (const auto& r : checked_) {
      norm += truth[r.best_predicted_index] / best / double(checked_.size());
    }
    return norm;
  }

  void traced_layers(LayerMetrics& layers, const std::vector<SpanRecord>& spans,
                     const telemetry::Telemetry& tel, Report& report) override {
    double spawn = 0.0, wait = 0.0;
    for (const auto& s : spans) {
      if (s.name == "measure.spawn") spawn += s.end - s.start;
      if (s.name == "measure.run") wait += s.end - s.start;
    }
    layers.set("measure.spawn_s", spawn);
    layers.set("measure.wait_s", wait);
    const auto rtt = tel.histogram_stats("timing.measure.rtt_s");
    if (rtt.count > 0) {
      layers.set("measure.rtt_p50_ms", 1e3 * rtt.quantile(0.5));
      layers.set("measure.rtt_p99_ms", 1e3 * rtt.quantile(0.99));
    }
    std::ostringstream os;
    os << "measure.rtt_p50/p99_ms: bucket-interpolated from the "
       << "timing.measure.rtt_s histogram, " << rtt.count << " samples; p99 has "
       << samples_beyond(rtt.count, 0.99) << " beyond it";
    report.note(os.str());
    const auto& st = stats_;
    layers.set("measure.dispatched", double(st.dispatched));
    layers.set("measure.runs", double(st.completed));
    layers.set("measure.useful_ratio",
               st.dispatched > 0 ? double(st.completed) / double(st.dispatched) : 0.0);
    os.str("");
    os << "measure.useful_ratio base: " << st.completed << " runs / " << st.dispatched
       << " dispatched";
    report.note(os.str());
    layers.set("measure.hedges", double(st.hedges));
    layers.set("measure.hedge_wasted", double(st.hedge_wasted));
    layers.set("measure.worker_restarts", double(st.restarts));
  }

 private:
  const Options& options_;
  std::unique_ptr<Inputs> inputs_;
  /// Of the phase `run` returned last: the first kCheckedSessions
  /// results, the later crash-injected ones, and the summed backend stats.
  std::vector<tuner::TuneResult> checked_;
  std::vector<std::pair<std::size_t, tuner::TuneResult>> crashed_;
  measure::SubprocessStats stats_;
};

}  // namespace

void run_measure_plane(const Options& options, Report& report) {
  MeasurePlane(options).drive(options, report);
}

}  // namespace perfbench
