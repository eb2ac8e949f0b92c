// A named, ordered, finite set of integer parameter values.
//
// All tunables in the paper's workflows (process counts, processes per
// node, thread counts, buffer sizes, output counts) are integers drawn
// from explicit ranges (Table 1), so Parameter stores an ordered list of
// distinct ints and supports value<->index mapping.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ceal::config {

class Parameter {
 public:
  /// `values` must be non-empty, strictly increasing.
  Parameter(std::string name, std::vector<int> values);

  /// Inclusive arithmetic range {lo, lo+step, ..., <= hi}. step > 0.
  static Parameter range(std::string name, int lo, int hi, int step = 1);

  const std::string& name() const { return name_; }
  std::size_t cardinality() const { return values_.size(); }
  const std::vector<int>& values() const { return values_; }

  /// Value at ordinal position `idx` (< cardinality()).
  int value(std::size_t idx) const;

  /// Ordinal position of `value`; throws PreconditionError if absent.
  std::size_t index_of(int value) const;

  bool contains(int value) const;

 private:
  std::string name_;
  std::vector<int> values_;
  /// Common difference of values_ when they form an arithmetic
  /// progression (every range() does), else 0: index_of() is then one
  /// division instead of a binary search.
  long long step_ = 0;
};

}  // namespace ceal::config
