#include "core/csv.h"

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
    : file_(path), columns_(header.size()) {
  CEAL_EXPECT(!header.empty());
  write_csv_row(file_.stream(), header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  CEAL_EXPECT_MSG(cells.size() == columns_, "CSV row width mismatch");
  write_csv_row(file_.stream(), cells);
  ++rows_;
}

}  // namespace ceal
