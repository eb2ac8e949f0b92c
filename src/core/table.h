// Aligned ASCII table printer used by the bench harness to emit the rows
// of each paper table/figure in a readable, diffable form.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ceal {

/// Collects rows of string cells and renders them with aligned columns.
///
///   Table t({"algo", "time"});
///   t.add_row({"CEAL", "3.13"});
///   std::cout << t;        // operator<<(std::ostream&, const Table&),
///                          // renders via Table::print(std::ostream&)
///   t.to_csv(std::cout);   // same rows as RFC-4180-style CSV
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; it may have fewer cells than the header (padded empty)
  /// but not more.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 3);

  std::size_t row_count() const { return rows_.size(); }

  /// Renders with a header underline and two-space column gaps.
  void print(std::ostream& os) const;

  /// Writes header + rows as CSV, one write_csv_row per row (see
  /// core/csv.h for the quoting rules). Used by
  /// `ceal_trace --csv` report output.
  void to_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const Table& t);

}  // namespace ceal
