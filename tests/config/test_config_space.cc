#include "config/config_space.h"

#include <gtest/gtest.h>

#include <set>

#include "core/error.h"
#include "core/rng.h"

namespace ceal::config {
namespace {

ConfigSpace small_space(ConfigSpace::Constraint c = {}) {
  return ConfigSpace({Parameter::range("a", 1, 3), Parameter("b", {10, 20}),
                      Parameter::range("c", 0, 4)},
                     std::move(c));
}

TEST(ConfigSpace, RawSizeIsProductOfCardinalities) {
  EXPECT_EQ(small_space().raw_size(), 3u * 2u * 5u);
}

TEST(ConfigSpace, AtDecodesMixedRadixLastFastest) {
  const auto s = small_space();
  EXPECT_EQ(s.at(0), (Configuration{1, 10, 0}));
  EXPECT_EQ(s.at(1), (Configuration{1, 10, 1}));
  EXPECT_EQ(s.at(5), (Configuration{1, 20, 0}));
  EXPECT_EQ(s.at(s.raw_size() - 1), (Configuration{3, 20, 4}));
}

TEST(ConfigSpace, FlatIndexInvertsAt) {
  const auto s = small_space();
  for (std::uint64_t i = 0; i < s.raw_size(); ++i) {
    EXPECT_EQ(s.flat_index(s.at(i)), i);
  }
}

TEST(ConfigSpace, FlatIndexOfSpanReadsValuesInPlace) {
  const auto s = small_space();
  // A slice of a longer configuration, as pool scoring reads component
  // slices out of joint configurations.
  const std::vector<int> joint{7, 2, 20, 4, 9};
  const std::span<const int> slice = std::span<const int>(joint).subspan(1, 3);
  EXPECT_EQ(s.flat_index(slice), s.flat_index(Configuration{2, 20, 4}));
  EXPECT_THROW(s.flat_index(std::span<const int>(joint)),
               ceal::PreconditionError);
}

TEST(ConfigSpace, AtRejectsOutOfRangeIndex) {
  const auto s = small_space();
  EXPECT_THROW(s.at(s.raw_size()), ceal::PreconditionError);
}

TEST(ConfigSpace, ParameterLookupByName) {
  const auto s = small_space();
  EXPECT_EQ(s.parameter_index("a"), 0u);
  EXPECT_EQ(s.parameter_index("c"), 2u);
  EXPECT_THROW(s.parameter_index("missing"), ceal::PreconditionError);
}

TEST(ConfigSpace, ValueOfByName) {
  const auto s = small_space();
  const Configuration c{2, 20, 3};
  EXPECT_EQ(s.value_of(c, "a"), 2);
  EXPECT_EQ(s.value_of(c, "b"), 20);
}

TEST(ConfigSpace, ValidityChecksDomainsAndConstraint) {
  const auto s = small_space(
      [](const Configuration& c) { return c[0] + c[2] <= 4; });
  EXPECT_TRUE(s.is_valid({1, 10, 3}));
  EXPECT_FALSE(s.is_valid({1, 10, 4}));   // constraint violated
  EXPECT_FALSE(s.is_valid({1, 15, 0}));   // 15 not in b's domain
  EXPECT_FALSE(s.is_valid({1, 10}));      // wrong arity
}

TEST(ConfigSpace, RandomValidRespectsConstraint) {
  const auto s = small_space(
      [](const Configuration& c) { return c[0] == 2; });
  ceal::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto c = s.random_valid(rng);
    EXPECT_EQ(c[0], 2);
    EXPECT_TRUE(s.is_valid(c));
  }
}

TEST(ConfigSpace, RandomValidThrowsOnEmptyConstraint) {
  const auto s = small_space([](const Configuration&) { return false; });
  ceal::Rng rng(5);
  EXPECT_THROW(s.random_valid(rng, 100), ceal::InvariantError);
}

TEST(ConfigSpace, SampleValidReturnsRequestedCount) {
  const auto s = small_space();
  ceal::Rng rng(6);
  EXPECT_EQ(s.sample_valid(rng, 17).size(), 17u);
}

TEST(ConfigSpace, CountValidExactMatchesManualCount) {
  const auto s = small_space(
      [](const Configuration& c) { return c[2] % 2 == 0; });
  // c in {0,2,4} of 5 values -> 3/5 of the grid.
  EXPECT_EQ(s.count_valid_exact(), 3u * 2u * 3u);
}

TEST(ConfigSpace, CountValidExactWithoutConstraintIsRawSize) {
  const auto s = small_space();
  EXPECT_EQ(s.count_valid_exact(), s.raw_size());
}

TEST(ConfigSpace, CountValidExactRefusesHugeSpaces) {
  const auto s = small_space([](const Configuration&) { return true; });
  EXPECT_THROW(s.count_valid_exact(/*limit=*/10), ceal::PreconditionError);
}

TEST(ConfigSpace, EstimateValidFractionApproximatesTruth) {
  const auto s = small_space(
      [](const Configuration& c) { return c[2] % 2 == 0; });
  ceal::Rng rng(7);
  EXPECT_NEAR(s.estimate_valid_fraction(rng, 20000), 0.6, 0.02);
}

TEST(ConfigSpace, NeighborsDifferInExactlyOneParameterStep) {
  const auto s = small_space();
  const Configuration c{2, 10, 2};
  const auto nbrs = s.neighbors(c);
  // a: 1 or 3; b: 20; c: 1 or 3 -> five neighbours.
  EXPECT_EQ(nbrs.size(), 5u);
  for (const auto& n : nbrs) {
    int diffs = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (n[i] != c[i]) ++diffs;
    }
    EXPECT_EQ(diffs, 1);
    EXPECT_TRUE(s.is_valid(n));
  }
}

TEST(ConfigSpace, NeighborsRespectDomainEdges) {
  const auto s = small_space();
  const auto nbrs = s.neighbors({1, 10, 0});  // a and c at lower edges
  EXPECT_EQ(nbrs.size(), 3u);  // a->2, b->20, c->1
}

TEST(ConfigSpace, NeighborsFilterInvalid) {
  const auto s = small_space(
      [](const Configuration& c) { return c[0] != 2; });
  const auto nbrs = s.neighbors({1, 10, 2});
  for (const auto& n : nbrs) EXPECT_NE(n[0], 2);
}

TEST(ConfigSpace, FeaturesCastValues) {
  const auto s = small_space();
  const auto f = s.features({3, 20, 4});
  ASSERT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f[0], 3.0);
  EXPECT_DOUBLE_EQ(f[1], 20.0);
  EXPECT_DOUBLE_EQ(f[2], 4.0);
}

TEST(ConfigSpace, ToStringFormat) {
  EXPECT_EQ(to_string({1, 2, 3}), "(1, 2, 3)");
  EXPECT_EQ(to_string({}), "()");
}

TEST(ConfigSpace, UniformityOverSmallGrid) {
  // at(uniform) should hit every cell roughly equally.
  const ConfigSpace s({Parameter::range("x", 0, 3)});
  ceal::Rng rng(11);
  std::array<int, 4> hits{};
  for (int i = 0; i < 8000; ++i) {
    ++hits[static_cast<std::size_t>(s.random_valid(rng)[0])];
  }
  for (const int h : hits) EXPECT_NEAR(h, 2000, 150);
}

}  // namespace
}  // namespace ceal::config
