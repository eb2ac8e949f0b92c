#include "core/csv.h"

#include <stdexcept>

#include "core/error.h"

namespace ceal {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (const char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

void write_csv_row(std::ostream& os, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) os << ',';
    os << csv_escape(cells[i]);
  }
  os << '\n';
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), columns_(header.size()) {
  CEAL_EXPECT(!header.empty());
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  write_csv_row(out_, header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  CEAL_EXPECT_MSG(cells.size() == columns_, "CSV row width mismatch");
  write_csv_row(out_, cells);
  ++rows_;
}

}  // namespace ceal
