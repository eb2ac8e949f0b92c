#include "core/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/csv.h"
#include "core/error.h"

namespace ceal {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  CEAL_EXPECT(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  CEAL_EXPECT_MSG(cells.size() <= header_.size(),
                  "row has more cells than the header");
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };

  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::to_csv(std::ostream& os) const {
  write_csv_row(os, header_);
  for (const auto& row : rows_) write_csv_row(os, row);
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  t.print(os);
  return os;
}

}  // namespace ceal
