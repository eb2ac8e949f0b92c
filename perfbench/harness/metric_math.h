// Metric math of the benchmark harness: percentiles, tail support,
// span self time, and the wall-clock split of a traced run by layer.
// Pure functions over plain data, so tests/test_metric_math.cc can pin
// each rule down without running a workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile of `xs` (q in [0, 1]) by the rank rule of core/stats.h:
/// pos = q * (n - 1), linear interpolation between neighbours. 0 for
/// an empty sample.
double percentile(const std::vector<double>& xs, double q);

/// Samples strictly above the q-quantile's rank position:
/// (n - 1) - floor(q * (n - 1)). 0 for an empty sample.
std::size_t samples_beyond(std::size_t n, double q);

/// True when the q-quantile of n samples has at least ten samples
/// beyond it — the condition for reporting it as a tail percentile.
bool tail_supported(std::size_t n, double q);

/// Groups `values` (value i observed at `times[i]`) by the whole windows
/// of `width` seconds that tile [t0, t1) from t0, one group per window,
/// empty ones included. A partial last window is left out, and so are
/// values observed outside [t0, t1).
std::vector<std::vector<double>> window_groups(const std::vector<double>& times,
                                               const std::vector<double>& values,
                                               double t0, double t1, double width);

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Cumulative CPU time of the whole machine, in ticks of /proc/stat:
/// busy (user, nice, system, irq, softirq) and steal (time the
/// hypervisor ran something else while a virtual CPU wanted to run).
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};

/// The totals of a /proc/stat "cpu" line; zeros for any other line.
CpuTicks parse_cpu_ticks(const std::string& line);

/// A reading of the machine's CPU ticks at monotonic time `t`.
struct TickSample {
  double t = 0.0;
  CpuTicks ticks;
};

/// Share of the busy CPU time in [t0, t1] that the host stole:
/// d_steal / (d_busy + d_steal) between the last sample at or before
/// t0 and the first at or after t1 (the nearest ones where the samples
/// do not reach). `samples` are in time order. 0 with fewer than two
/// samples or when nothing ran.
double steal_share(const std::vector<TickSample>& samples, double t0, double t1);

/// `wall_s` less the share of it the host stole: the time the work
/// would have taken on CPUs of its own.
inline double unstolen(double wall_s, double steal_share) {
  return wall_s * (1.0 - steal_share);
}

/// Self time of a span: its length minus the part of it that the union
/// of its children covers. Children running concurrently on other
/// threads count once, so self time is never negative.
double self_time(const Interval& span, const std::vector<Interval>& children);

/// One finished span of a trace tree. `parent` is the span id of the
/// span that caused it (0, or an id no later span has: a root).
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Wall-clock split of a traced window [t0, t1] over a span forest given
/// in end order (a span after its children, as trace events arrive).
/// Each instant of the window is shared out top-down: a span keeps the
/// instant as self time when none of its children is open, otherwise
/// it divides it equally among the children open then (k concurrent
/// children each get 1/k). Children are clipped to their parent, roots
/// to the window. The shares of all spans plus `unattributed_s` (the
/// instants no root covers) add up to t1 - t0 exactly.
struct WallSplit {
  /// Self wall seconds per span name.
  std::map<std::string, double> self_by_name;
  /// Thread-seconds of self time per span name: span length minus the
  /// union of its children (self_time above), summed over spans.
  std::map<std::string, double> thread_self_by_name;
  /// Span count per name.
  std::map<std::string, std::uint64_t> count_by_name;
  double window_s = 0.0;
  double unattributed_s = 0.0;
};

WallSplit split_wall(const std::vector<SpanRecord>& spans, double t0,
                     double t1);

}  // namespace perfbench
