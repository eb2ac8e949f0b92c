// Tests of the harness's metric math: the percentile rank rule, tail
// support, host steal shares, span self time, and the wall split of a
// traced run.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/stats.h"
#include "harness/metric_math.h"

namespace perfbench {
namespace {

double total_split(const WallSplit& split) {
  double sum = split.unattributed_s;
  for (const auto& [name, s] : split.self_by_name) sum += s;
  return sum;
}

TEST(Percentile, UsesTheRankRuleOfCoreStats) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  // pos = q * (n - 1), linear between neighbours of the sorted sample.
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<double> sample(257);
  for (double& x : sample) x = dist(gen);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(percentile(sample, q), ceal::quantile(sample, q)) << q;
  }
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(TailSupport, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(900, 0.99), 9u);
  EXPECT_FALSE(tail_supported(900, 0.99));
  EXPECT_TRUE(tail_supported(100, 0.9));
  EXPECT_FALSE(tail_supported(90, 0.9));
  EXPECT_EQ(samples_beyond(101, 0.9), 10u);  // integral rank position
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  EXPECT_FALSE(tail_supported(5, 0.5));
}

TEST(WindowGroups, GroupsValuesByWholeWindow) {
  // [10, 12.7) holds two whole 1 s windows; 12.5 is in the partial
  // third and 9.9 before the first, so both are left out.
  const std::vector<double> times = {11.5, 10.0, 10.2, 9.9, 12.5, 10.99};
  const std::vector<double> values = {1, 2, 3, 4, 5, 6};
  const auto groups = window_groups(times, values, 10.0, 12.7, 1.0);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<double>{2, 3, 6}));
  EXPECT_EQ(groups[1], (std::vector<double>{1}));
  // An empty window is kept, so a stall reads as a rate of 0.
  const auto halves = window_groups(times, values, 10.0, 12.0, 0.5);
  ASSERT_EQ(halves.size(), 4u);
  EXPECT_TRUE(halves[2].empty());
  EXPECT_TRUE(window_groups(times, values, 10.0, 10.4, 0.5).empty());
}

TEST(CpuTicks, ParsesTheTotalsLineOfProcStat) {
  // user nice system idle iowait irq softirq steal guest guest_nice
  const CpuTicks t = parse_cpu_ticks("cpu  100 2 30 900 40 5 6 70 8 0");
  EXPECT_DOUBLE_EQ(t.busy, 100 + 2 + 30 + 5 + 6);  // idle, iowait, guest out
  EXPECT_DOUBLE_EQ(t.steal, 70);
  EXPECT_DOUBLE_EQ(parse_cpu_ticks("cpu0 100 2 30 900 40 5 6 70 8 0").busy, 0.0);
  EXPECT_DOUBLE_EQ(parse_cpu_ticks("cpu  1 2 3").busy, 0.0);
}

TEST(StealShare, IsStolenOverBusyPlusStolenBetweenBracketingSamples) {
  const std::vector<TickSample> samples = {
      {0.0, {0, 0}}, {1.0, {90, 10}}, {2.0, {150, 70}}, {3.0, {250, 70}}};
  EXPECT_DOUBLE_EQ(steal_share(samples, 0.0, 1.0), 0.1);
  // [1.2, 1.8] widens to the samples at 1.0 and 2.0.
  EXPECT_DOUBLE_EQ(steal_share(samples, 1.2, 1.8), 0.5);
  EXPECT_DOUBLE_EQ(steal_share(samples, 0.5, 2.5), 70.0 / 320.0);  // 0.0 to 3.0
  // Past the last sample: the nearest one; nothing stolen in [2, 3].
  EXPECT_DOUBLE_EQ(steal_share(samples, 2.0, 9.0), 0.0);
  EXPECT_DOUBLE_EQ(steal_share({samples[0]}, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(unstolen(2.0, 0.25), 1.5);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Overlapping children (concurrent threads) count once; a child
  // sticking out of its parent is clipped to it.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 3}, {2, 5}, {7, 8}}), 5.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{9, 12}}), 9.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{0, 10}, {0, 10}}), 0.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {}), 10.0);
}

TEST(WallSplit, NestedSpansKeepTheirSelfTime) {
  const std::vector<SpanRecord> spans = {
      {"c", 3, 2, 3.0, 4.0},
      {"b", 2, 1, 2.0, 6.0},
      {"a", 1, 0, 0.0, 10.0},
  };
  const WallSplit split = split_wall(spans, 0.0, 12.0);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("a"), 6.0);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("b"), 3.0);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("c"), 1.0);
  EXPECT_DOUBLE_EQ(split.unattributed_s, 2.0);
  EXPECT_DOUBLE_EQ(split.thread_self_by_name.at("b"), 3.0);
  EXPECT_EQ(split.count_by_name.at("c"), 1u);
  EXPECT_DOUBLE_EQ(total_split(split), 12.0);
}

TEST(WallSplit, ConcurrentChildrenShareTheWall) {
  const std::vector<SpanRecord> spans = {
      {"short", 3, 1, 0.0, 5.0},
      {"long", 2, 1, 0.0, 10.0},
      {"pool", 1, 0, 0.0, 10.0},
  };
  const WallSplit split = split_wall(spans, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("long"), 7.5);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("short"), 2.5);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("pool"), 0.0);
  // Thread time still counts each child in full.
  EXPECT_DOUBLE_EQ(split.thread_self_by_name.at("long"), 10.0);
  EXPECT_DOUBLE_EQ(split.thread_self_by_name.at("short"), 5.0);
  EXPECT_DOUBLE_EQ(split.unattributed_s, 0.0);
}

TEST(WallSplit, ReusedIdsBindToTheNextSpanToEnd) {
  // Two sequential calls whose children reuse the same ids.
  const std::vector<SpanRecord> spans = {
      {"leaf", 7, 5, 1.0, 2.0}, {"task", 5, 1, 0.0, 3.0},
      {"call", 1, 0, 0.0, 3.0}, {"leaf", 7, 5, 4.0, 6.0},
      {"task", 5, 2, 3.0, 7.0}, {"call", 2, 0, 3.0, 7.0},
  };
  const WallSplit split = split_wall(spans, 0.0, 7.0);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("leaf"), 3.0);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("task"), 4.0);
  EXPECT_DOUBLE_EQ(split.self_by_name.at("call"), 0.0);
  EXPECT_DOUBLE_EQ(split.unattributed_s, 0.0);
}

TEST(WallSplit, UnattributedIsNeverNegative) {
  // Roots overlapping each other and the window's edges.
  const std::vector<SpanRecord> spans = {
      {"r1", 1, 0, -5.0, 20.0},
      {"r2", 2, 0, 0.0, 10.0},
      {"orphan", 3, 99, 2.0, 4.0},
  };
  const WallSplit split = split_wall(spans, 0.0, 10.0);
  EXPECT_GE(split.unattributed_s, 0.0);
  EXPECT_NEAR(total_split(split), 10.0, 1e-12);
}

TEST(WallSplit, SharesAlwaysAddUpToTheWindow) {
  std::mt19937_64 gen(11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<SpanRecord> spans;
    for (std::uint64_t id = 1; id <= 40; ++id) {
      const std::uint64_t parent =
          id > 1 && unit(gen) < 0.8 ? 1 + gen() % (id - 1) : 0;
      const double a = 10.0 * unit(gen), b = 10.0 * unit(gen);
      spans.push_back({"s" + std::to_string(id % 5), id, parent,
                       std::min(a, b), std::max(a, b)});
    }
    std::reverse(spans.begin(), spans.end());  // children end first
    const WallSplit split = split_wall(spans, 1.0, 9.0);
    EXPECT_GE(split.unattributed_s, 0.0);
    EXPECT_NEAR(total_split(split), 8.0, 1e-9);
    for (const auto& [name, s] : split.self_by_name) EXPECT_GE(s, 0.0);
  }
}

}  // namespace
}  // namespace perfbench
