// Per-test scratch paths under ::testing::TempDir().
//
// ctest runs every gtest case as its own process, and `ctest -j` runs
// them concurrently, so a fixture whose tests share one fixed file name
// lets one test truncate, replace, or delete another's file mid-run.
// Building the name from the running test's suite and name plus the pid
// keeps concurrent tests (and concurrent checkouts) apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace ceal::testutil {

/// `<TempDir><suite>.<test>.<pid>.<leaf>`. Call from inside a test body
/// or fixture constructor, where gtest has set the current test.
inline std::string test_temp_path(const std::string& leaf) {
  const ::testing::TestInfo& info =
      *::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info.test_suite_name() + "." + info.name() +
         "." + std::to_string(::getpid()) + "." + leaf;
}

}  // namespace ceal::testutil
