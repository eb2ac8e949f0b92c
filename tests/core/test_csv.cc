#include "core/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "tests/temp_path.h"

namespace ceal {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_back() const {
    std::ifstream in(path_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::string path_ = testutil::test_temp_path("table.csv");
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4"});
    EXPECT_EQ(csv.rows_written(), 2u);
    csv.commit();
  }
  EXPECT_EQ(read_back(), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvTest, WriterDestroyedWithoutCommitKeepsPreviousFile) {
  {
    CsvWriter csv(path_, {"a"});
    csv.add_row({"old"});
    csv.commit();
  }
  {
    // A run killed or failed before commit(): the half-written rows
    // never reach the target path, and no temp file is left behind.
    CsvWriter csv(path_, {"a"});
    csv.add_row({"new"});
  }
  EXPECT_EQ(read_back(), "a\nold\n");
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());
}

TEST_F(CsvTest, EscapesCommasQuotesAndNewlines) {
  {
    CsvWriter csv(path_, {"x"});
    csv.add_row({"a,b"});
    csv.add_row({"quote\"inside"});
    csv.add_row({"line\nbreak"});
    csv.commit();
  }
  EXPECT_EQ(read_back(),
            "x\n\"a,b\"\n\"quote\"\"inside\"\n\"line\nbreak\"\n");
}

TEST_F(CsvTest, QuotesBareCarriageReturn) {
  // A bare \r splits the record for readers that break on CRLF, so it
  // is quoted like \n; Table::to_csv shares the same escaper.
  {
    CsvWriter csv(path_, {"x"});
    csv.add_row({"a\rb"});
    csv.commit();
  }
  EXPECT_EQ(read_back(), "x\n\"a\rb\"\n");
  EXPECT_EQ(csv_escape("a\rb"), "\"a\rb\"");
}

TEST_F(CsvTest, RejectsWidthMismatch) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), PreconditionError);
}

TEST_F(CsvTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), PreconditionError);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/foo.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace ceal
