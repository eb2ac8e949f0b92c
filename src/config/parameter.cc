#include "config/parameter.h"

#include <algorithm>

#include "core/error.h"

namespace ceal::config {

Parameter::Parameter(std::string name, std::vector<int> values)
    : name_(std::move(name)), values_(std::move(values)) {
  CEAL_EXPECT_MSG(!name_.empty(), "parameter needs a name");
  CEAL_EXPECT_MSG(!values_.empty(), "parameter needs at least one value");
  CEAL_EXPECT_MSG(std::adjacent_find(values_.begin(), values_.end(),
                                     [](int a, int b) { return a >= b; }) ==
                      values_.end(),
                  "parameter values must be strictly increasing");
  step_ = values_.size() > 1 ? static_cast<long long>(values_[1]) - values_[0]
                             : 1;
  for (std::size_t i = 1; i < values_.size() && step_ != 0; ++i) {
    if (static_cast<long long>(values_[i]) - values_[i - 1] != step_) {
      step_ = 0;
    }
  }
}

Parameter Parameter::range(std::string name, int lo, int hi, int step) {
  CEAL_EXPECT(step > 0);
  CEAL_EXPECT(lo <= hi);
  std::vector<int> values;
  values.reserve(static_cast<std::size_t>((hi - lo) / step) + 1);
  for (int v = lo; v <= hi; v += step) values.push_back(v);
  return Parameter(std::move(name), std::move(values));
}

int Parameter::value(std::size_t idx) const {
  CEAL_EXPECT(idx < values_.size());
  return values_[idx];
}

std::size_t Parameter::index_of(int value) const {
  if (step_ != 0) {
    const long long offset = static_cast<long long>(value) - values_.front();
    const long long idx = offset / step_;
    CEAL_EXPECT_MSG(offset >= 0 && offset % step_ == 0 &&
                        idx < static_cast<long long>(values_.size()),
                    "value not in parameter domain: " + name_);
    return static_cast<std::size_t>(idx);
  }
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  CEAL_EXPECT_MSG(it != values_.end() && *it == value,
                  "value not in parameter domain: " + name_);
  return static_cast<std::size_t>(it - values_.begin());
}

bool Parameter::contains(int value) const {
  return std::binary_search(values_.begin(), values_.end(), value);
}

}  // namespace ceal::config
