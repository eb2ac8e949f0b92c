#include "harness/metric_math.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/stats.h"

namespace perfbench {

double percentile(const std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  return ceal::quantile(xs, q);
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double pos = q * static_cast<double>(n - 1);
  return (n - 1) - static_cast<std::size_t>(std::floor(pos));
}

bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

CpuTicks parse_cpu_ticks(const std::string& line) {
  std::istringstream in(line);
  std::string label;
  in >> label;
  if (label != "cpu") return {};
  // user nice system idle iowait irq softirq steal (guest time is
  // already part of user and nice).
  double f[8] = {};
  for (double& v : f) {
    if (!(in >> v)) return {};
  }
  return CpuTicks{f[0] + f[1] + f[2] + f[5] + f[6], f[7]};
}

double steal_share(const std::vector<TickSample>& samples, double t0, double t1) {
  if (samples.size() < 2) return 0.0;
  // The last sample at or before t0 (else the first) and the first at
  // or after t1 (else the last).
  auto from = std::upper_bound(samples.begin(), samples.end(), t0,
                               [](double t, const TickSample& s) { return t < s.t; });
  if (from != samples.begin()) --from;
  auto to = std::lower_bound(samples.begin(), samples.end(), t1,
                             [](const TickSample& s, double t) { return s.t < t; });
  if (to == samples.end()) --to;
  const double steal = to->ticks.steal - from->ticks.steal;
  const double busy = to->ticks.busy - from->ticks.busy;
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

std::vector<std::vector<double>> window_groups(const std::vector<double>& times,
                                               const std::vector<double>& values,
                                               double t0, double t1, double width) {
  const auto windows = static_cast<std::size_t>(std::max(0.0, (t1 - t0) / width));
  std::vector<std::vector<double>> groups(windows);
  for (std::size_t i = 0; i < times.size() && i < values.size(); ++i) {
    if (times[i] < t0) continue;
    const auto w = static_cast<std::size_t>((times[i] - t0) / width);
    if (w < windows) groups[w].push_back(values[i]);
  }
  return groups;
}

namespace {

/// Total length of the union of `intervals`, each clipped to [lo, hi].
double union_length(std::vector<Interval> intervals, double lo, double hi) {
  for (auto& iv : intervals) {
    iv.start = std::max(iv.start, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::erase_if(intervals, [](const Interval& iv) { return iv.end <= iv.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double cur_start = 0.0, cur_end = 0.0;
  bool open = false;
  for (const auto& iv : intervals) {
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

double self_time(const Interval& span, const std::vector<Interval>& children) {
  const double length = std::max(0.0, span.end - span.start);
  return std::max(0.0, length - union_length(children, span.start, span.end));
}

namespace {

struct Seg {
  double a, b, w;
};

class Splitter {
 public:
  Splitter(const std::vector<SpanRecord>& spans, WallSplit& out)
      : spans_(spans), out_(out), kids_(spans.size()) {
    // Spans arrive in end order, children before their parent. Ids are
    // unique only among the spans open at one time (two evaluate calls
    // reuse their replications' ids), so a span adopts the children
    // waiting for its id so far, and the next span with that id starts
    // afresh.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> waiting;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (auto it = waiting.find(spans[i].id); it != waiting.end()) {
        kids_[i] = std::move(it->second);
        waiting.erase(it);
      }
      if (spans[i].parent != 0) waiting[spans[i].parent].push_back(i);
      else roots_.push_back(i);
    }
    for (const auto& [id, orphans] : waiting) {
      roots_.insert(roots_.end(), orphans.begin(), orphans.end());
    }
  }

  void run(double t0, double t1) {
    out_.window_s = std::max(0.0, t1 - t0);
    if (t1 <= t0) return;
    attribute(nullptr, t0, t1, {{t0, t1, 1.0}}, roots_);
  }

 private:
  // Shares the weighted segments `segs` of a node spanning [lo, hi]
  // between the node itself (`self` null: the window) and its children.
  void attribute(const SpanRecord* self, double lo, double hi,
                 const std::vector<Seg>& segs,
                 const std::vector<std::size_t>& kids) {
    struct Kid {
      std::size_t index;
      double s, e;
    };
    std::vector<Kid> clipped;
    std::vector<Interval> kid_ivs;
    for (const std::size_t k : kids) {
      const double s = std::max(spans_[k].start, lo);
      const double e = std::min(spans_[k].end, hi);
      clipped.push_back({k, s, std::max(s, e)});
      kid_ivs.push_back({s, std::max(s, e)});
    }
    if (self != nullptr) {
      out_.thread_self_by_name[self->name] += self_time({lo, hi}, kid_ivs);
      ++out_.count_by_name[self->name];
    }
    std::sort(clipped.begin(), clipped.end(),
              [](const Kid& x, const Kid& y) { return x.s < y.s; });

    std::vector<double> cuts;
    for (const Seg& g : segs) {
      cuts.push_back(g.a);
      cuts.push_back(g.b);
    }
    for (const Kid& k : clipped) {
      cuts.push_back(k.s);
      cuts.push_back(k.e);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<std::vector<Seg>> kid_segs(clipped.size());
    std::vector<std::size_t> active;  // indices into clipped
    std::size_t next_kid = 0, seg = 0;
    double own = 0.0;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const double x = cuts[c], y = cuts[c + 1];
      while (seg < segs.size() && segs[seg].b <= x) ++seg;
      if (seg == segs.size() || segs[seg].a > x) continue;  // weight 0
      const double w = segs[seg].w;
      while (next_kid < clipped.size() && clipped[next_kid].s <= x) {
        active.push_back(next_kid++);
      }
      std::erase_if(active, [&](std::size_t k) { return clipped[k].e <= x; });
      if (active.empty()) {
        own += (y - x) * w;
        continue;
      }
      const double share = w / static_cast<double>(active.size());
      for (const std::size_t k : active) {
        auto& out = kid_segs[k];
        if (!out.empty() && out.back().b == x && out.back().w == share) {
          out.back().b = y;
        } else {
          out.push_back({x, y, share});
        }
      }
    }
    if (self != nullptr) {
      out_.self_by_name[self->name] += own;
    } else {
      out_.unattributed_s += own;
    }
    for (std::size_t k = 0; k < clipped.size(); ++k) {
      const SpanRecord& span = spans_[clipped[k].index];
      attribute(&span, clipped[k].s, clipped[k].e, kid_segs[k],
                kids_[clipped[k].index]);
    }
  }

  const std::vector<SpanRecord>& spans_;
  WallSplit& out_;
  std::vector<std::vector<std::size_t>> kids_;
  std::vector<std::size_t> roots_;
};

}  // namespace

WallSplit split_wall(const std::vector<SpanRecord>& spans, double t0,
                     double t1) {
  WallSplit out;
  Splitter(spans, out).run(t0, t1);
  out.unattributed_s = std::max(0.0, out.unattributed_s);
  return out;
}

}  // namespace perfbench
