// Shared plumbing of the benchmark harness: command-line options, the
// run report (metrics, checks, the result line), reference digests,
// process resource readings, and the per-layer tables of a traced run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/telemetry.h"
#include "harness/metric_math.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding ceal_serve and ceal_worker.
  std::string bin_dir;
  /// Scratch directory for sockets, journals and trace files.
  std::string work_dir;
  /// Committed reference digests (perfbench/reference.json).
  std::string reference;
  /// Print the run's digests instead of checking them.
  bool record = false;
  /// `git describe` of the sources, for the results header.
  std::string describe = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the result line's fields, the metrics
/// in print order, and human-readable detail for stderr.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records `count` failed operations (a throw, an `ok:false`, or an
  /// output mismatch) with a description.
  void fail(const std::string& what, std::uint64_t count = 1);
  /// Adds `count` attempted operations.
  void attempt(std::uint64_t count = 1) { attempted_ += count; }
  /// A line for the human-readable report.
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The human-readable report (results header, notes, metrics).
  void print_details(const Options& options) const;
  /// The one-line JSON result; the last line of stdout.
  std::string result_line() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::string> notes_;
};

/// 64-bit FNV-1a over a stream of values; doubles hash their exact bits.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(const std::string& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Checks `digest` (named `what`) against the committed reference for
/// (workload, seed): a mismatch fails `ops` operations. In record mode,
/// or when no reference exists for the seed, it only notes the digest.
void check_digest(Report& report, const Options& options,
                  const std::string& what, const std::string& digest,
                  std::uint64_t ops);

/// Peak resident set of this process (MiB).
double self_peak_rss_mb();
/// Peak resident set of process `pid` from /proc (MiB); 0 if unknown.
double pid_peak_rss_mb(int pid);
/// User + system CPU seconds of this process so far.
double process_cpu_s();
/// Logical CPUs available to this process (at least 1).
std::size_t cpu_count();
/// steady_clock seconds — the clock core/telemetry.h spans use.
double now_s();
/// The machine's CPU ticks now (zeros without /proc/stat).
CpuTicks read_cpu_ticks();

/// Samples the machine's CPU ticks every 50 ms on a background thread,
/// from construction to destruction, so that a timing can leave out the
/// time the host stole from the virtual CPUs (see steal_share). On a
/// shared host that is the largest source of run-to-run spread; without
/// steal accounting every share reads 0 and timings stay as measured.
class StealSampler {
 public:
  StealSampler();
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Steal share of busy CPU time over [t0, t1] (now_s() times).
  double share(double t0, double t1);

 private:
  /// Appends a reading; the caller holds mutex_ (or, in the
  /// constructor, runs before the sampling thread starts).
  void sample();

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<TickSample> samples_;
  std::thread thread_;
};

/// Session and step timings of a batch workload's timed phase.
struct SessionStats {
  std::vector<double> session_s;  ///< stepper creation -> result
  std::vector<double> session_end;  ///< now_s() at each result
  std::vector<double> step_s;     ///< one TunerStepper::step call
  double session_wall_total_s = 0.0;
  double cost_exec_s = 0.0;       ///< simulated seconds charged
};

std::vector<double> milliseconds(const std::vector<double>& seconds);

/// Per-layer metrics every workload prints in a traced run, zero where
/// the workload does not exercise the layer. Workloads fill in what
/// they measured, then `emit` prints the full set in a fixed order.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  /// Fills the sim.* / ml.* / tuner.* / self.* entries, unattributed_s, and the
  /// self-time table (as report notes) from a traced phase's spans
  /// and, when given, the Telemetry accumulators of the same phase.
  void from_trace(Report& report, const std::vector<SpanRecord>& spans,
                  double t0, double t1,
                  const ceal::telemetry::Telemetry* telemetry);
  /// core.cpu_per_wall = process CPU / (wall x nproc) of the untraced
  /// timed phase, with its base noted.
  void cpu_per_wall(Report& report, double cpu_s, double wall_s);
  /// trace_overhead_frac = traced / untraced - 1, with its base noted.
  void overhead(Report& report, double traced_s, double untraced_s,
                const std::string& base);
  /// Prints every per-layer metric, fail_frac from the report's counts
  /// included; call after the run's checks.
  void emit(Report& report);

 private:
  std::vector<std::pair<std::string, std::string>> order_;  // name, unit
  std::map<std::string, double> values_;
};

}  // namespace perfbench
