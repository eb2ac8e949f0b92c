#include "harness/batch.h"

#include <sstream>

#include "harness/span_trace.h"
#include "tuner/stepper.h"

namespace perfbench {

namespace {

/// Step and overhead figures of an untraced phase of `wall_s`: step
/// latency percentiles, steps completed per second (the closed-loop
/// max_steps_per_s) and session wall per simulated second charged.
struct StepFigures {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double steps_per_s = 0.0;
  double overhead_ppm = 0.0;
};

StepFigures step_figures(const SessionStats& stats, double wall_s) {
  const std::vector<double> step_ms = milliseconds(stats.step_s);
  StepFigures f;
  f.p50_ms = percentile(step_ms, 0.5);
  f.p99_ms = percentile(step_ms, 0.99);
  f.steps_per_s = static_cast<double>(step_ms.size()) / wall_s;
  if (stats.cost_exec_s > 0.0) {
    f.overhead_ppm = 1e6 * stats.session_wall_total_s / stats.cost_exec_s;
  }
  return f;
}

}  // namespace

void BatchWorkload::drive(const Options& options, Report& report) {
  StealSampler steal;
  std::vector<double> setup;
  for (int r = 0; r < (options.trace ? 1 : setup_repeats_); ++r) {
    const double t0 = now_s();
    build(nullptr);
    const double t1 = now_s();
    setup.push_back(unstolen(t1 - t0, steal.share(t0, t1)));
  }
  SessionLog log;
  const double phase_start = now_s();
  const BatchPhase timed = run(options.seconds, 0, log, nullptr, report);
  const double phase_steal = steal.share(phase_start, now_s());
  const double norm_perf = check(timed, report);

  const SessionStats stats = log.snapshot();
  const std::size_t n_sessions = stats.session_s.size();
  const std::size_t n_steps = stats.step_s.size();
  const StepFigures steps = step_figures(stats, timed.wall_s);
  std::ostringstream os;
  os << n_sessions << " sessions, " << n_steps << " steps in " << timed.wall_s
     << " s; session p90 has " << samples_beyond(n_sessions, 0.9) << " samples beyond it, step p99 has "
     << samples_beyond(n_steps, 0.99)
     << (tail_supported(n_sessions, 0.9) && tail_supported(n_steps, 0.99)
             ? ""
             : " (a tail with fewer than 10 samples beyond it reads as a "
               "high order statistic, not a percentile)");
  report.note(os.str());
  os.str("");
  os << "step latency p50 " << steps.p50_ms << " ms, p99 " << steps.p99_ms
     << " ms; max_steps_per_s " << steps.steps_per_s << "; overhead_ppm "
     << steps.overhead_ppm << ", base " << stats.session_wall_total_s
     << " s session wall / " << stats.cost_exec_s
     << " s simulated measurement time charged";
  report.note(os.str());

  if (!options.trace) {
    // Session figures leave out the share of each session's wall time
    // that the host stole; the report keeps them as measured too.
    std::vector<double> session_ms;
    for (std::size_t i = 0; i < n_sessions; ++i) {
      const double end = stats.session_end[i];
      const double wall = stats.session_s[i];
      session_ms.push_back(1e3 * unstolen(wall, steal.share(end - wall, end)));
    }
    const std::vector<double> wall_ms = milliseconds(stats.session_s);
    os.str("");
    os << "host steal: " << phase_steal << " of the busy CPU time in the timed phase "
       << "(/proc/stat steal / (busy + steal)); session figures leave each session's "
       << "stolen share out, as measured they read " << double(n_sessions) / timed.wall_s
       << " sessions/s, p50 " << percentile(wall_ms, 0.5) << " ms, p90 "
       << percentile(wall_ms, 0.9) << " ms";
    report.note(os.str());
    report.metric("setup_s", percentile(setup, 0.5), "s");
    report.metric("sessions_per_s",
                  static_cast<double>(n_sessions) / unstolen(timed.wall_s, phase_steal), "1/s");
    report.metric("session_p50_ms", percentile(session_ms, 0.5), "ms");
    report.metric("session_p90_ms", percentile(session_ms, 0.9), "ms");
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    report.metric("norm_perf", norm_perf, "ratio");
    return;
  }

  // Traced run: the same units again, with spans and telemetry.
  SpanSink sink;
  ceal::telemetry::Telemetry tel(&sink);
  tel.seed_trace(options.seed);
  const double t0 = now_s();
  build(&tel);
  SessionLog traced_log;
  const BatchPhase traced = run(0.0, timed.digests.size(), traced_log, &tel, report);
  const double t1 = now_s();
  if (traced.digests != timed.digests) {
    report.fail("traced " + unit_ + " differ from untraced " + unit_,
                timed.digests.size() * ops_per_unit_);
  }
  const auto spans = sink.take();
  LayerMetrics layers;
  layers.from_trace(report, spans, t0, t1, &tel);
  traced_layers(layers, spans, tel, report);
  layers.cpu_per_wall(report, timed.cpu_s, timed.wall_s);
  layers.set("step_p50_ms", steps.p50_ms);
  layers.set("step_p99_ms", steps.p99_ms);
  layers.set("max_steps_per_s", steps.steps_per_s);
  layers.set("overhead_ppm", steps.overhead_ppm);
  layers.overhead(report, traced.wall_s, timed.wall_s,
                  std::to_string(timed.digests.size()) + " " + unit_);
  layers.emit(report);
}

ceal::tuner::TuneResult run_session(const TimedTuner& tuner,
                                    const ceal::tuner::TuningProblem& problem,
                                    std::size_t budget, ceal::Rng& rng) {
  auto stepper = tuner.make_stepper(problem, budget, rng);
  while (stepper->step()) {
  }
  return stepper->take_result();
}

}  // namespace perfbench
