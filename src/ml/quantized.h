// Quantized training backend for TreeMethod::kQuantized.
//
// A QuantizedMatrix is the structure-of-arrays counterpart of the
// row-major Dataset: per-feature quantile bin edges are computed once
// (ml::quantile_bins) and every feature value is packed to a uint8 bin
// index stored in a contiguous per-feature column. An ensemble fit
// quantizes once and shares the matrix across all boosting rounds.
//
// QuantizedTreeBuilder grows one tree over the packed columns in level
// order (breadth-first) without any per-(node, feature) allocation:
// histograms live in two reusable scratch buffers (current and previous
// level), accumulation walks rows and reads each row's bin indices from
// a packed row-major mirror in one load, and each
// bin update is one fused gradient+count accumulation (hessians are
// tracked separately only when they are not identically 1.0 — boosting
// with squared error always passes h_i = 1, where the per-bin hessian is
// exactly the count). Each level also accumulates only the smaller child
// of every split and derives the sibling by histogram subtraction
// (sibling = parent - smaller), halving the accumulation work below the
// root. The node units of a level are independent and fan out across the
// global thread pool; reductions walk features in ascending index order,
// so the grown tree is bitwise identical for any worker count.
//
// Histograms are sparse: each node unit carries a per-bin occupancy
// bitmap (one uint64 word per 64 bins, features padded to word
// boundaries), and only occupied bins are ever written or read. Deep in
// a tree a node holds far fewer rows than there are bins, so full
// zero-fills, subtraction over every bin, and gain evaluation at empty
// boundaries would all be bin-linear waste — with the bitmap, accumulate
// first-touch-initialises bins, derive walks only the parent's set bits,
// and the split scan visits only occupied boundaries. Skipping empty
// boundaries selects the same split: an empty bin's boundary carries the
// same prefix sums as the nearest occupied boundary below it, so its
// gain is a tie the incumbent (earlier bin) already holds.
//
// The gain formula, tie handling (kGainEps, lowest feature index), and
// all TreeParams constraints match kExact; when every feature has at
// most max_bins distinct values the candidate thresholds match too, and
// predictions differ from kExact only by the last-ulp float error that
// histogram subtraction introduces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ml/tree.h"

namespace ceal::ml {

/// Quantile binning of one feature: `bin_max[b]` is the largest training
/// value of bin b (ascending) and `split_value[b]` the candidate
/// threshold between bins b and b+1, satisfying
/// max(bin b) <= split_value[b] < min(bin b+1) — so partitioning by bin
/// index equals partitioning by `value <= split_value[b]`.
struct FeatureQuantiles {
  std::vector<double> split_value;  ///< size bin_max.size() - 1
  std::vector<double> bin_max;
};

/// Quantile cuts of one feature's sorted values into at most `max_bins`
/// bins — the binning rule of QuantizedMatrix. When the feature has <=
/// max_bins distinct values every value gets its own bin (the kExact
/// candidate set).
FeatureQuantiles quantile_bins(std::span<const double> sorted_vals,
                               std::size_t max_bins);

/// Growable scratch of uninitialised storage. The histogram buffers are
/// governed by occupancy bitmaps — bins without a set bit are never
/// read — so the zero-fill std::vector performs on every resize-growth
/// (one per tree level, every tree of the ensemble) would be pure
/// overhead. Growth discards the old contents.
template <class T>
class ScratchBuffer {
 public:
  T* ensure(std::size_t n) {
    if (cap_ < n) {
      buf_ = std::make_unique_for_overwrite<T[]>(n);
      cap_ = n;
    }
    return buf_.get();
  }
  T* data() { return buf_.get(); }
  const T* data() const { return buf_.get(); }
  void swap(ScratchBuffer& other) {
    buf_.swap(other.buf_);
    std::swap(cap_, other.cap_);
  }

 private:
  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
};

/// Pre-quantized SoA view of a dataset: per-feature bin edges plus one
/// contiguous uint8 bin-index column per feature. Quantization depends
/// only on the feature values — not on gradients or the per-tree row
/// sample — so it is computed once per ensemble fit.
class QuantizedMatrix {
 public:
  /// Quantile-bins every feature of `data` into at most `max_bins` bins
  /// (uint8 indices). 2 <= max_bins <= kMaxBins.
  QuantizedMatrix(const Dataset& data, std::size_t max_bins);

  std::size_t n_rows() const { return n_rows_; }
  std::size_t n_features() const { return features_.size(); }

  /// Number of bins of feature j (>= 1 when the matrix is non-empty).
  std::size_t bin_count(std::size_t j) const {
    return features_[j].bin_max.size();
  }

  /// Candidate threshold between bins b and b+1 of feature j.
  double split_value(std::size_t j, std::size_t b) const {
    return features_[j].split_value[b];
  }

  /// Contiguous bin-index column of feature j (n_rows() entries).
  const std::uint8_t* column(std::size_t j) const {
    return binned_.data() + j * n_rows_;
  }

  /// All bin indices of one row, contiguous (n_features() entries).
  /// Histogram accumulation walks rows, not columns, so the row-major
  /// mirror turns its d column gathers per row into one packed load.
  const std::uint8_t* packed_row(std::size_t r) const {
    return packed_.data() + r * features_.size();
  }

 private:
  std::size_t n_rows_ = 0;
  std::vector<FeatureQuantiles> features_;
  /// Bin index per value, feature-major: binned_[j * n_rows_ + row].
  std::vector<std::uint8_t> binned_;
  /// The same indices row-major: packed_[row * n_features + j].
  std::vector<std::uint8_t> packed_;
};

/// Reusable scratch shared by every QuantizedTreeBuilder of one
/// ensemble fit: histogram buffers, row/gradient gathers, and the
/// 1/(k + lambda) reciprocal table. A builder lives for one tree; an
/// ensemble fit constructs thousands, and without a shared workspace
/// each one would re-allocate (and re-fill) every buffer. Owned by the
/// caller (ml/gbt.cc keeps one per fit next to the QuantizedMatrix);
/// not concurrency-safe — one workspace per running fit.
struct QuantizedWorkspace {
  ScratchBuffer<double> prev_g, curr_g;
  ScratchBuffer<double> prev_h, curr_h;  // unused when hessians are unit
  ScratchBuffer<std::uint32_t> prev_n, curr_n;
  ScratchBuffer<std::uint64_t> prev_bits, curr_bits;
  std::vector<std::uint32_t> slots;         // rows, partitioned in place
  std::vector<std::uint32_t> part_scratch;  // right side of a partition
  std::vector<double> recip;                // 1/(k + recip_lambda)
  double recip_lambda = std::numeric_limits<double>::quiet_NaN();
};

/// Level-order tree growth over a QuantizedMatrix; one instance per
/// fitted tree (RegressionTree::fit_gradients constructs it for
/// TreeMethod::kQuantized).
class QuantizedTreeBuilder {
 public:
  /// `workspace` (nullable) carries the scratch buffers across trees of
  /// an ensemble fit; when null the builder owns a transient one.
  QuantizedTreeBuilder(RegressionTree& tree,
                       std::span<const std::size_t> row_indices,
                       std::span<const double> g, std::span<const double> h,
                       std::vector<std::size_t> feature_pool,
                       const QuantizedMatrix& matrix,
                       ceal::telemetry::Telemetry* telemetry,
                       QuantizedWorkspace* workspace = nullptr);

  void run(std::vector<double>* out_leaf_values);

 private:
  struct LevelNode {
    std::uint32_t lo = 0, hi = 0;    // range in slots_
    std::int32_t node = -1;          // index into the tree's node table
    double g_sum = 0.0, h_sum = 0.0;
    std::int32_t parent_hist = -1;   // histogram slot in the previous level
    std::int32_t sibling = -1;       // index of the sibling LevelNode
    std::int32_t hist = -1;          // this node's slot; -1 when terminal
    bool subtract = false;           // derive from parent - sibling
  };

  struct Split {
    bool found = false;
    std::size_t slot = 0;  // index into pool_
    std::size_t bin = 0;
    double gain = 0.0;
    double g_left = 0.0;
    double h_left = 0.0;
    std::uint32_t n_left = 0;
  };

  const TreeParams& params() const { return tree_.params_; }
  /// Builds the node's histogram from its rows. `parent_bits` (nullable)
  /// is set when the node's sibling will derive by subtraction: bins the
  /// parent occupies but this node does not are zeroed so the sibling's
  /// dense subtraction reads defined values everywhere it matters.
  void accumulate(const LevelNode& node, const std::uint64_t* parent_bits);
  void derive(const LevelNode& node, const LevelNode& sibling);
  Split best_split(const LevelNode& node) const;

  RegressionTree& tree_;
  std::span<const double> g_, h_;
  std::vector<std::size_t> pool_;   // searched features, ascending
  const QuantizedMatrix& qm_;
  ceal::telemetry::Telemetry* telemetry_;  // nullable

  bool unit_hessian_ = false;       // every h_i == 1.0 (the boosting case)

  /// Transient fallback, allocated only when the caller passed no
  /// workspace; ws_ is the one actually used either way. Declared
  /// before the reference views below so they bind to live storage.
  std::unique_ptr<QuantizedWorkspace> owned_ws_;
  QuantizedWorkspace& ws_;

  // Views into ws_ under the builder's historical member names.
  std::vector<std::uint32_t>& slots_ = ws_.slots;  // rows, partitioned

  /// Sum of per-feature bin counts over pool_, each padded up to a
  /// multiple of 64 so every feature's occupancy bits start on a word
  /// boundary (padding bins are never accumulated, so their bits stay 0
  /// and their array slots are never read). A bin's array slot index
  /// equals its global bit index.
  std::size_t total_bins_ = 0;
  std::size_t words_ = 0;              // total_bins_ / 64
  std::vector<std::size_t> feat_off_;  // per pool slot, offset into a hist

  /// 1 / (k + lambda) for k = 0..n_rows, so the unit-hessian split scan
  /// replaces its two divisions per candidate with multiplications
  /// (hessian sums are exact row counts there). Cached in the workspace
  /// across trees (ws_.recip_lambda keys validity).
  std::vector<double>& recip_ = ws_.recip;

  // Histogram scratch, reused across levels (and, via the workspace,
  // across trees): previous level (parents) and current level, each
  // `units x total_bins_`. Uninitialised except where the occupancy
  // bitmaps say otherwise.
  ScratchBuffer<double>& prev_g_ = ws_.prev_g;
  ScratchBuffer<double>& curr_g_ = ws_.curr_g;
  ScratchBuffer<double>& prev_h_ = ws_.prev_h;  // unused when unit_hessian_
  ScratchBuffer<double>& curr_h_ = ws_.curr_h;
  ScratchBuffer<std::uint32_t>& prev_n_ = ws_.prev_n;
  ScratchBuffer<std::uint32_t>& curr_n_ = ws_.curr_n;
  ScratchBuffer<std::uint64_t>& prev_bits_ = ws_.prev_bits;   // occupancy
  ScratchBuffer<std::uint64_t>& curr_bits_ = ws_.curr_bits;
  std::vector<std::uint32_t>& part_scratch_ = ws_.part_scratch;

  // Per-level bookkeeping, reused across levels.
  std::vector<LevelNode> next_;
  std::vector<Split> splits_;
  std::vector<std::size_t> acc_units_;
};

}  // namespace ceal::ml
