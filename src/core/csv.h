// Minimal RFC-4180-ish CSV writer so bench binaries can dump machine-
// readable series next to their human-readable tables.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/atomic_file.h"

namespace ceal {

/// RFC 4180 cell quoting: a cell containing a separator, a quote, or
/// either line-break character (a bare \r corrupts the record just as \n
/// does for consumers that split on CRLF) is double-quoted with embedded
/// quotes doubled; any other cell is returned unchanged.
std::string csv_escape(const std::string& cell);

/// Writes `cells` as one CSV record (csv_escape'd, comma-separated,
/// '\n'-terminated).
void write_csv_row(std::ostream& os, const std::vector<std::string>& cells);

/// Writes through core/atomic_file: rows go to "<path>.tmp" and only
/// commit() replaces `path`, so a writer destroyed without commit() (a
/// killed or failed run) leaves the previous file intact, never a
/// truncated one.
class CsvWriter {
 public:
  /// Opens the temp file and writes the header row. Throws
  /// std::runtime_error if the temp file cannot be created.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Writes one data row; must match the header width.
  void add_row(const std::vector<std::string>& cells);

  /// Atomically replaces `path` with the rows written so far (see
  /// AtomicFile::commit). Call once, after the last row.
  void commit() { file_.commit(); }

  std::size_t rows_written() const { return rows_; }

 private:
  AtomicFile file_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

}  // namespace ceal
