#include "config/parameter.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace ceal::config {
namespace {

TEST(Parameter, ExplicitValues) {
  const Parameter p("outputs", {4, 8, 16, 32});
  EXPECT_EQ(p.name(), "outputs");
  EXPECT_EQ(p.cardinality(), 4u);
  EXPECT_EQ(p.value(0), 4);
  EXPECT_EQ(p.value(3), 32);
}

TEST(Parameter, RangeWithUnitStep) {
  const Parameter p = Parameter::range("procs", 2, 5);
  EXPECT_EQ(p.cardinality(), 4u);
  EXPECT_EQ(p.value(0), 2);
  EXPECT_EQ(p.value(3), 5);
}

TEST(Parameter, RangeWithStride) {
  const Parameter p = Parameter::range("outputs", 4, 32, 4);
  EXPECT_EQ(p.cardinality(), 8u);
  EXPECT_EQ(p.value(0), 4);
  EXPECT_EQ(p.value(7), 32);
}

TEST(Parameter, RangeStopsAtUpperBound) {
  const Parameter p = Parameter::range("x", 1, 10, 4);  // 1, 5, 9
  EXPECT_EQ(p.cardinality(), 3u);
  EXPECT_EQ(p.value(2), 9);
}

TEST(Parameter, SingletonRange) {
  const Parameter p = Parameter::range("procs", 1, 1);
  EXPECT_EQ(p.cardinality(), 1u);
  EXPECT_EQ(p.value(0), 1);
}

TEST(Parameter, IndexOfRoundTrips) {
  const Parameter p = Parameter::range("ppn", 1, 35);
  for (std::size_t i = 0; i < p.cardinality(); ++i) {
    EXPECT_EQ(p.index_of(p.value(i)), i);
  }
}

TEST(Parameter, IndexOfMissingValueThrows) {
  const Parameter p("tpp", {1, 2, 4});
  EXPECT_THROW(p.index_of(3), ceal::PreconditionError);
  EXPECT_THROW(p.index_of(0), ceal::PreconditionError);
}

TEST(Parameter, IndexOfEvenlySpacedValuesMatchesPosition) {
  // Evenly spaced values (any range(), or an explicit list like these)
  // take the arithmetic path; it must agree with the value list and
  // reject everything off the grid.
  for (const Parameter& p :
       {Parameter::range("outputs", 4, 32, 4), Parameter("x", {-6, -3, 0, 3}),
        Parameter::range("procs", 7, 7)}) {
    for (std::size_t i = 0; i < p.cardinality(); ++i) {
      EXPECT_EQ(p.index_of(p.value(i)), i) << p.name();
    }
    const int first = p.values().front();
    const int last = p.values().back();
    EXPECT_THROW(p.index_of(first - 1), ceal::PreconditionError) << p.name();
    EXPECT_THROW(p.index_of(last + 1), ceal::PreconditionError) << p.name();
    EXPECT_THROW(p.index_of(last + 4), ceal::PreconditionError) << p.name();
  }
  EXPECT_THROW(Parameter::range("outputs", 4, 32, 4).index_of(6),
               ceal::PreconditionError);
  EXPECT_THROW(Parameter::range("x", 0, 10).index_of(-2147483647 - 1),
               ceal::PreconditionError);
}

TEST(Parameter, Contains) {
  const Parameter p("tpp", {1, 2, 4});
  EXPECT_TRUE(p.contains(2));
  EXPECT_FALSE(p.contains(3));
}

TEST(Parameter, RejectsEmptyValues) {
  EXPECT_THROW(Parameter("x", {}), ceal::PreconditionError);
}

TEST(Parameter, RejectsNonIncreasingValues) {
  EXPECT_THROW(Parameter("x", {1, 1}), ceal::PreconditionError);
  EXPECT_THROW(Parameter("x", {2, 1}), ceal::PreconditionError);
}

TEST(Parameter, RejectsEmptyName) {
  EXPECT_THROW(Parameter("", {1}), ceal::PreconditionError);
}

TEST(Parameter, RangeRejectsBadArguments) {
  EXPECT_THROW(Parameter::range("x", 5, 1), ceal::PreconditionError);
  EXPECT_THROW(Parameter::range("x", 1, 5, 0), ceal::PreconditionError);
}

}  // namespace
}  // namespace ceal::config
