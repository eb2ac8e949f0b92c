#include "ml/quantized.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/error.h"
#include "core/parallel.h"
#include "core/telemetry.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ceal::ml {

namespace {

/// Occupancy word of the 64 counts at cn[0..63]: bit j set iff
/// cn[j] != 0. SSE2 (x86-64 baseline) turns the per-bin shift-or chain
/// into four-lane compares + movemask.
inline std::uint64_t nonzero_mask64(const std::uint32_t* cn) {
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  std::uint64_t nz = 0;
  for (std::size_t j = 0; j < 64; j += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cn + j));
    const int zmask =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, zero)));
    nz |= static_cast<std::uint64_t>(~zmask & 0xF) << j;
  }
  return nz;
#else
  std::uint64_t nz = 0;
  for (std::size_t j = 0; j < 64; ++j) {
    nz |= static_cast<std::uint64_t>(cn[j] != 0) << j;
  }
  return nz;
#endif
}

double leaf_weight(double g_sum, double h_sum, double lambda) {
  return -g_sum / (h_sum + lambda);
}

double score(double g_sum, double h_sum, double lambda) {
  return g_sum * g_sum / (h_sum + lambda);
}

/// Same tie epsilon as the exact split finder (tree.cc):
/// gains within it are ties and the incumbent (lower feature index,
/// earlier bin) wins.
constexpr double kGainEps = 1e-12;

/// Minimum (rows in level) x (features searched) before a level's node
/// units are worth fanning out to the thread pool.
constexpr std::size_t kParallelLevelWork = 2048;

}  // namespace

FeatureQuantiles quantile_bins(std::span<const double> sorted_vals,
                               std::size_t max_bins) {
  const std::size_t n = sorted_vals.size();
  FeatureQuantiles fb;
  std::size_t distinct = n == 0 ? 0 : 1;
  for (std::size_t k = 1; k < n; ++k) {
    if (sorted_vals[k] != sorted_vals[k - 1]) ++distinct;
  }
  if (distinct <= max_bins) {
    // One bin per distinct value: the candidate set (midpoints between
    // adjacent values) matches the exact-greedy search.
    fb.bin_max.reserve(distinct);
    for (std::size_t k = 0; k < n; ++k) {
      if (k == 0 || sorted_vals[k] != sorted_vals[k - 1]) {
        fb.bin_max.push_back(sorted_vals[k]);
      }
    }
  } else {
    // Quantile cuts: bin edges at ranks b*n/max_bins, deduplicated so
    // heavy duplicates collapse into one bin.
    fb.bin_max.reserve(max_bins);
    for (std::size_t b = 1; b < max_bins; ++b) {
      const double edge = sorted_vals[(b * n) / max_bins];
      if (fb.bin_max.empty() || edge != fb.bin_max.back()) {
        fb.bin_max.push_back(edge);
      }
    }
    if (fb.bin_max.empty() || sorted_vals.back() != fb.bin_max.back()) {
      fb.bin_max.push_back(sorted_vals.back());
    }
  }

  fb.split_value.resize(fb.bin_max.empty() ? 0 : fb.bin_max.size() - 1);
  for (std::size_t b = 0; b + 1 < fb.bin_max.size(); ++b) {
    const double lo = fb.bin_max[b];
    // Smallest training value of the next bin: the first sorted value
    // above this bin's edge.
    const double hi = *std::upper_bound(sorted_vals.begin(),
                                        sorted_vals.end(), lo);
    double mid = lo + 0.5 * (hi - lo);
    if (!(mid < hi)) mid = lo;  // rounding collapse: stay left of hi
    fb.split_value[b] = mid;
  }
  return fb;
}

QuantizedMatrix::QuantizedMatrix(const Dataset& data, std::size_t max_bins)
    : n_rows_(data.size()),
      features_(data.n_features()),
      binned_(data.n_features() * data.size()) {
  CEAL_EXPECT(max_bins >= 2 && max_bins <= kMaxBins);
  const std::size_t n = n_rows_;
  const auto bin_one = [&](std::size_t j) {
    std::vector<double> vals(n);
    for (std::size_t k = 0; k < n; ++k) vals[k] = data.feature(k, j);
    std::sort(vals.begin(), vals.end());

    FeatureQuantiles& fb = features_[j];
    fb = quantile_bins(vals, max_bins);
    CEAL_ENSURE(fb.bin_max.size() <= kMaxBins);

    std::uint8_t* col = binned_.data() + j * n;
    for (std::size_t k = 0; k < n; ++k) {
      const double v = data.feature(k, j);
      const auto it =
          std::lower_bound(fb.bin_max.begin(), fb.bin_max.end(), v);
      col[k] = static_cast<std::uint8_t>(it - fb.bin_max.begin());
    }
  };
  const std::size_t d = data.n_features();
  if (d > 1 && d * n >= kParallelLevelWork) {
    ceal::parallel_apply(0, d, bin_one);
  } else {
    for (std::size_t j = 0; j < d; ++j) bin_one(j);
  }
  packed_.resize(n * d);
  for (std::size_t j = 0; j < d; ++j) {
    const std::uint8_t* col = binned_.data() + j * n;
    for (std::size_t r = 0; r < n; ++r) packed_[r * d + j] = col[r];
  }
}

QuantizedTreeBuilder::QuantizedTreeBuilder(
    RegressionTree& tree, std::span<const std::size_t> row_indices,
    std::span<const double> g, std::span<const double> h,
    std::vector<std::size_t> feature_pool, const QuantizedMatrix& matrix,
    ceal::telemetry::Telemetry* telemetry, QuantizedWorkspace* workspace)
    : tree_(tree),
      g_(g),
      h_(h),
      pool_(std::move(feature_pool)),
      qm_(matrix),
      telemetry_(telemetry),
      owned_ws_(workspace == nullptr ? std::make_unique<QuantizedWorkspace>()
                                     : nullptr),
      ws_(workspace != nullptr ? *workspace : *owned_ws_) {
  slots_.assign(row_indices.begin(), row_indices.end());
  // Ascending feature order makes the reduction's tie-break "lowest
  // feature index" regardless of the pool's sampling order.
  std::sort(pool_.begin(), pool_.end());
  // Squared-error boosting always passes h_i = 1; then every per-bin
  // hessian is exactly the bin count and the hessian arrays vanish.
  unit_hessian_ = std::all_of(h_.begin(), h_.end(),
                              [](double v) { return v == 1.0; });
  feat_off_.resize(pool_.size());
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    feat_off_[s] = total_bins_;
    total_bins_ += (qm_.bin_count(pool_[s]) + 63) & ~std::size_t{63};
  }
  words_ = total_bins_ / 64;
  if (unit_hessian_) {
    // The table only depends on (row count, lambda); across the trees of
    // one ensemble fit both repeat, so the divisions run once per fit.
    const double lambda = params().lambda;
    const std::size_t want = slots_.size() + 1;
    if (recip_.size() != want || ws_.recip_lambda != lambda) {
      recip_.resize(want);
      for (std::size_t k = 0; k < want; ++k) {
        recip_[k] = 1.0 / (static_cast<double>(k) + lambda);
      }
      ws_.recip_lambda = lambda;
    }
  }
}

void QuantizedTreeBuilder::accumulate(const LevelNode& node,
                                      const std::uint64_t* parent_bits) {
  const std::size_t lo = node.lo, hi = node.hi;
  const std::size_t base = static_cast<std::size_t>(node.hist) * total_bins_;
  double* const cg = curr_g_.data() + base;
  double* const ch = unit_hessian_ ? nullptr : curr_h_.data() + base;
  std::uint32_t* const cn = curr_n_.data() + base;
  std::uint64_t* bits =
      curr_bits_.data() + static_cast<std::size_t>(node.hist) * words_;

  // Two accumulation regimes. Dense (enough rows to touch a good share
  // of the bins): zero-fill the unit, run the branch-free update loop,
  // then derive the bitmap from the counts in one vectorisable sweep.
  // Sparse (rows << bins, deep in the tree): skip the bin-linear fills
  // and first-touch-initialise each bin off its occupancy bit instead,
  // paying a data-dependent branch per update. The histograms are
  // identical either way (0.0 + g == g), so the crossover is purely a
  // speed trade.
  // Both regimes walk rows, not columns: the packed row-major mirror
  // hands a row's bin indices over in one load, and feat_off_[s] + bin
  // addresses the unit's histogram globally. Per feature the additions
  // still land in ascending-k order, so the sums are bitwise identical
  // to a column-major pass.
  const std::size_t n_pool = pool_.size();
  const bool dense = (hi - lo) * n_pool * 8 >= total_bins_;
  if (dense) {
    std::fill(cg, cg + total_bins_, 0.0);
    std::fill(cn, cn + total_bins_, 0u);
    if (!unit_hessian_) std::fill(ch, ch + total_bins_, 0.0);
    if (unit_hessian_) {
      for (std::size_t k = lo; k < hi; ++k) {
        const std::uint32_t r = slots_[k];
        const std::uint8_t* rb = qm_.packed_row(r);
        const double g = g_[r];
        for (std::size_t s = 0; s < n_pool; ++s) {
          const std::size_t b = feat_off_[s] + rb[pool_[s]];
          cg[b] += g;
          ++cn[b];
        }
      }
    } else {
      for (std::size_t k = lo; k < hi; ++k) {
        const std::uint32_t r = slots_[k];
        const std::uint8_t* rb = qm_.packed_row(r);
        const double g = g_[r], hv = h_[r];
        for (std::size_t s = 0; s < n_pool; ++s) {
          const std::size_t b = feat_off_[s] + rb[pool_[s]];
          cg[b] += g;
          ch[b] += hv;
          ++cn[b];
        }
      }
    }
    // Every real bin holds a defined value (empty ones an exact 0.0),
    // so the sibling's subtraction needs no complement zeroing; the
    // bitmap comes from one vectorised sweep over the counts.
    for (std::size_t w = 0; w < words_; ++w) {
      bits[w] = nonzero_mask64(cn + (w << 6));
    }
    return;
  }

  std::fill(bits, bits + words_, std::uint64_t{0});
  for (std::size_t k = lo; k < hi; ++k) {
    const std::uint32_t r = slots_[k];
    const std::uint8_t* rb = qm_.packed_row(r);
    const double g = g_[r];
    for (std::size_t s = 0; s < n_pool; ++s) {
      const std::size_t b = feat_off_[s] + rb[pool_[s]];
      std::uint64_t& word = bits[b >> 6];
      const std::uint64_t mask = std::uint64_t{1} << (b & 63);
      if (word & mask) {
        cg[b] += g;
        ++cn[b];
        if (!unit_hessian_) ch[b] += h_[r];
      } else {
        // First touch of this bin: initialise instead of zero-filling
        // the whole histogram up front.
        word |= mask;
        cg[b] = g;
        cn[b] = 1;
        if (!unit_hessian_) ch[b] = h_[r];
      }
    }
  }
  if (parent_bits == nullptr) return;
  // The sibling will derive by a dense word-wide subtraction over every
  // parent-occupied bin; bins the parent occupies but this node does
  // not would feed it uninitialised values, so zero exactly those.
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t extra = parent_bits[w] & ~bits[w];
    while (extra != 0) {
      const std::size_t b =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(extra));
      extra &= extra - 1;
      cg[b] = 0.0;
      cn[b] = 0;
      if (!unit_hessian_) ch[b] = 0.0;
    }
  }
}

void QuantizedTreeBuilder::derive(const LevelNode& node,
                                  const LevelNode& sibling) {
  const std::size_t dst = static_cast<std::size_t>(node.hist) * total_bins_;
  const std::size_t par =
      static_cast<std::size_t>(node.parent_hist) * total_bins_;
  const std::size_t sib =
      static_cast<std::size_t>(sibling.hist) * total_bins_;
  double* __restrict dg = curr_g_.data() + dst;
  const double* __restrict sg = curr_g_.data() + sib;
  const double* __restrict pg = prev_g_.data() + par;
  std::uint32_t* __restrict dn = curr_n_.data() + dst;
  const std::uint32_t* __restrict sn = curr_n_.data() + sib;
  const std::uint32_t* __restrict pn = prev_n_.data() + par;
  const std::uint64_t* pbits =
      prev_bits_.data() + static_cast<std::size_t>(node.parent_hist) * words_;
  std::uint64_t* dbits =
      curr_bits_.data() + static_cast<std::size_t>(node.hist) * words_;
  // Only the parent's occupied bins can be occupied here. The subtract
  // runs dense across each parent-occupied word so it vectorises (bins
  // outside the parent's bits compute garbage the bitmap masks off),
  // and a bin whose rows all went to the sibling ends with count 0 and
  // stays unoccupied (its residual gradient is dropped, not stored).
  for (std::size_t w = 0; w < words_; ++w) {
    const std::uint64_t pw = pbits[w];
    if (pw == 0) {
      dbits[w] = 0;
      continue;
    }
    const std::size_t b0 = w << 6;
    // Type-homogeneous loops so each one auto-vectorises.
    for (std::size_t j = 0; j < 64; ++j) {
      dn[b0 + j] = pn[b0 + j] - sn[b0 + j];
    }
    for (std::size_t j = 0; j < 64; ++j) {
      dg[b0 + j] = pg[b0 + j] - sg[b0 + j];
    }
    if (!unit_hessian_) {
      double* __restrict dh = curr_h_.data() + dst;
      const double* __restrict sh = curr_h_.data() + sib;
      const double* __restrict ph = prev_h_.data() + par;
      for (std::size_t j = 0; j < 64; ++j) {
        dh[b0 + j] = ph[b0 + j] - sh[b0 + j];
      }
    }
    dbits[w] = nonzero_mask64(dn + b0) & pw;
  }
}

QuantizedTreeBuilder::Split QuantizedTreeBuilder::best_split(
    const LevelNode& node) const {
  const TreeParams& prm = params();
  const std::size_t n_node = node.hi - node.lo;
  const std::size_t base = static_cast<std::size_t>(node.hist) * total_bins_;
  const double* const cg = curr_g_.data() + base;
  const std::uint32_t* const cn = curr_n_.data() + base;
  const std::uint64_t* bits =
      curr_bits_.data() + static_cast<std::size_t>(node.hist) * words_;

  Split best;
  if (unit_hessian_) {
    // Unit hessians: every hessian sum is an exact row count, so the
    // gain's divisions become lookups in the 1/(k + lambda) table and
    // the min_samples_leaf / min_child_weight constraints collapse to
    // one integer range on n_left.
    const double* const recip = recip_.data();
    const double parent_score = node.g_sum * node.g_sum * recip[n_node];
    const std::size_t lo_n = std::max(
        prm.min_samples_leaf,
        static_cast<std::size_t>(
            std::ceil(std::max(0.0, prm.min_child_weight))));
    if (2 * lo_n > n_node) return best;
    const std::size_t hi_n = n_node - lo_n;
    // Single accept threshold folds the "first split needs gain > 0"
    // and the "beat the incumbent by kGainEps" rules into one compare:
    // it starts at 0 and every accept raises it to gain + kGainEps,
    // which is exactly the two-clause condition unrolled.
    double thr = 0.0;
    // Running max of the raw split score q = gL^2/(nL+lambda) +
    // gR^2/(nR+lambda) over every feasible boundary seen so far. The
    // gain transform 0.5*(q - parent_score) - gamma is monotone
    // (rounding preserves order), so q <= q_best can never pass the
    // accept test and the full gain arithmetic only runs on a new
    // high-water mark.
    double q_best = -std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < pool_.size(); ++s) {
      const std::size_t n_bins = qm_.bin_count(pool_[s]);
      if (n_bins < 2) continue;
      const double* hg = cg + feat_off_[s];
      const std::uint32_t* hn = cn + feat_off_[s];
      const std::uint64_t* fbits = bits + feat_off_[s] / 64;
      const std::size_t n_words = (n_bins + 63) / 64;
      // The last bin has no right side; masking its bit up front (its
      // bit is the highest that can be set — padding bins never
      // accumulate) removes the boundary check from the inner loop.
      const std::size_t last_w = (n_bins - 1) >> 6;
      const std::uint64_t last_mask =
          ~(std::uint64_t{1} << ((n_bins - 1) & 63));
      double g_left = 0.0;
      std::size_t n_left = 0;
      const auto eval = [&](std::size_t b) {
        const std::size_t n_right = n_node - n_left;
        const double g_right = node.g_sum - g_left;
        const double q = g_left * g_left * recip[n_left] +
                         g_right * g_right * recip[n_right];
        if (q <= q_best) return;
        q_best = q;
        const double gain = 0.5 * (q - parent_score) - prm.gamma;
        if (gain > thr) {
          thr = gain + kGainEps;
          best.found = true;
          best.slot = s;
          best.bin = b;
          best.gain = gain;
          best.g_left = g_left;
          best.h_left = static_cast<double>(n_left);
          best.n_left = static_cast<std::uint32_t>(n_left);
        }
      };
      // Occupied boundaries only: a boundary at an empty bin carries
      // the same prefix sums (and therefore gain) as the nearest
      // occupied boundary below it, which the incumbent tie-break
      // already keeps.
      for (std::size_t w = 0; w < n_words; ++w) {
        std::uint64_t remaining = fbits[w];
        if (w == last_w) remaining &= last_mask;
        if (remaining == ~std::uint64_t{0}) {
          // Saturated word (typical near the root, where rows cover
          // every bin): plain scan, no bit extraction.
          const std::size_t b0 = w << 6;
          for (std::size_t j = 0; j < 64; ++j) {
            g_left += hg[b0 + j];
            n_left += hn[b0 + j];
            if (n_left < lo_n || n_left > hi_n) continue;
            eval(b0 + j);
          }
          continue;
        }
        while (remaining != 0) {
          const std::size_t b =
              (w << 6) +
              static_cast<std::size_t>(std::countr_zero(remaining));
          remaining &= remaining - 1;
          g_left += hg[b];
          n_left += hn[b];
          if (n_left < lo_n || n_left > hi_n) continue;
          eval(b);
        }
      }
    }
    return best;
  }

  const double parent_score = score(node.g_sum, node.h_sum, prm.lambda);
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    const std::size_t n_bins = qm_.bin_count(pool_[s]);
    if (n_bins < 2) continue;
    const double* hg = cg + feat_off_[s];
    const std::uint32_t* hn = cn + feat_off_[s];
    const double* hh = curr_h_.data() + base + feat_off_[s];
    const std::uint64_t* fbits = bits + feat_off_[s] / 64;
    const std::size_t n_words = (n_bins + 63) / 64;
    double g_left = 0.0, h_left = 0.0;
    std::size_t n_left = 0;
    for (std::size_t w = 0; w < n_words; ++w) {
      std::uint64_t remaining = fbits[w];
      while (remaining != 0) {
        const std::size_t b =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(remaining));
        remaining &= remaining - 1;
        if (b + 1 >= n_bins) break;  // last bin: no right side remains
        g_left += hg[b];
        n_left += hn[b];
        h_left += hh[b];
        const std::size_t n_right = n_node - n_left;
        if (n_left < prm.min_samples_leaf ||
            n_right < prm.min_samples_leaf) {
          continue;
        }
        const double h_right = node.h_sum - h_left;
        if (h_left < prm.min_child_weight ||
            h_right < prm.min_child_weight) {
          continue;
        }
        const double g_right = node.g_sum - g_left;
        const double gain = 0.5 * (score(g_left, h_left, prm.lambda) +
                                   score(g_right, h_right, prm.lambda) -
                                   parent_score) -
                            prm.gamma;
        if (gain > best.gain + kGainEps || (!best.found && gain > 0.0)) {
          best.found = true;
          best.slot = s;
          best.bin = b;
          best.gain = gain;
          best.g_left = g_left;
          best.h_left = h_left;
          best.n_left = static_cast<std::uint32_t>(n_left);
        }
      }
    }
  }
  return best;
}

void QuantizedTreeBuilder::run(std::vector<double>* out_leaf_values) {
  const TreeParams& prm = params();
  auto& nodes = tree_.nodes_;
  const std::size_t n = slots_.size();
  part_scratch_.resize(n);  // once; every partition fits inside
  double g_sum = 0.0, h_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    g_sum += g_[slots_[k]];
    h_sum += h_[slots_[k]];
  }

  nodes.emplace_back();
  std::vector<LevelNode> level(1);
  level[0].lo = 0;
  level[0].hi = static_cast<std::uint32_t>(n);
  level[0].node = 0;
  level[0].g_sum = g_sum;
  level[0].h_sum = h_sum;

  const auto make_leaf = [&](const LevelNode& ln) {
    RegressionTree::Node& leaf = nodes[static_cast<std::size_t>(ln.node)];
    leaf.left = -1;
    leaf.right = -1;
    leaf.weight = leaf_weight(ln.g_sum, ln.h_sum, prm.lambda);
    if (out_leaf_values != nullptr) {
      for (std::size_t k = ln.lo; k < ln.hi; ++k) {
        (*out_leaf_values)[slots_[k]] = leaf.weight;
      }
    }
  };

  for (std::size_t depth = 0; !level.empty(); ++depth) {
    // Histogram slot assignment: terminal nodes keep hist == -1; every
    // other node gets a slot, and of two splittable siblings the larger
    // (ties: the right child) derives its histogram by subtraction from
    // the parent instead of accumulating its rows.
    std::size_t level_rows = 0;
    std::int32_t units = 0;
    for (LevelNode& ln : level) {
      const std::size_t size = ln.hi - ln.lo;
      const bool terminal =
          depth >= prm.max_depth || size < 2 * prm.min_samples_leaf;
      ln.hist = terminal ? -1 : units++;
      ln.subtract = false;
      if (!terminal) level_rows += size;
    }
    for (std::size_t i = 0; i < level.size(); ++i) {
      LevelNode& ln = level[i];
      if (ln.hist < 0 || ln.sibling < 0) continue;
      const LevelNode& sib = level[static_cast<std::size_t>(ln.sibling)];
      if (sib.hist < 0) continue;  // sibling terminal: accumulate directly
      const std::size_t mine = ln.hi - ln.lo;
      const std::size_t theirs = sib.hi - sib.lo;
      // Subtraction touches three full histograms (parent, sibling,
      // own) — a bin-linear cost — so it only pays off when direct
      // accumulation of this node's rows would cost more; small nodes
      // accumulate sparsely instead. The decision depends only on row
      // counts and the bin layout, so it is thread-count independent.
      ln.subtract = (mine > theirs || (mine == theirs && ln.lo > sib.lo)) &&
                    mine * pool_.size() >= total_bins_;
    }
    if (units == 0) {
      for (const LevelNode& ln : level) make_leaf(ln);
      break;
    }

    if (telemetry_ != nullptr) {
      telemetry_->count("tree.split_search.nodes",
                        static_cast<std::size_t>(units));
      telemetry_->count("tree.split_search.features",
                        static_cast<std::size_t>(units) * pool_.size());
    }

    curr_g_.ensure(static_cast<std::size_t>(units) * total_bins_);
    curr_n_.ensure(static_cast<std::size_t>(units) * total_bins_);
    curr_bits_.ensure(static_cast<std::size_t>(units) * words_);
    if (!unit_hessian_) {
      curr_h_.ensure(static_cast<std::size_t>(units) * total_bins_);
    }

    // One fused job per accumulating unit: build its histogram, search
    // its split, and — when its sibling derives by subtraction — derive
    // and search the sibling too, while both histograms are still
    // cache-resident (a separate pass per phase would re-pull every
    // unit's histogram from memory). Jobs touch disjoint slot ranges
    // and fixed per-unit histograms, so they are independent and the
    // result is bitwise identical for any worker count.
    acc_units_.clear();
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (level[i].hist >= 0 && !level[i].subtract) acc_units_.push_back(i);
    }
    splits_.assign(static_cast<std::size_t>(units), Split{});
    const bool parallel = acc_units_.size() > 1 &&
                          level_rows * pool_.size() >= kParallelLevelWork;
    const auto job = [&](std::size_t i) {
      const LevelNode& ln = level[i];
      const LevelNode* sib =
          ln.sibling >= 0 ? &level[static_cast<std::size_t>(ln.sibling)]
                          : nullptr;
      const bool sib_subtracts = sib != nullptr && sib->subtract;
      const std::uint64_t* parent_bits =
          sib_subtracts ? prev_bits_.data() +
                              static_cast<std::size_t>(ln.parent_hist) * words_
                        : nullptr;
      accumulate(ln, parent_bits);
      splits_[static_cast<std::size_t>(ln.hist)] = best_split(ln);
      if (sib_subtracts) {
        derive(*sib, ln);
        splits_[static_cast<std::size_t>(sib->hist)] = best_split(*sib);
      }
    };
    if (parallel) {
      ceal::parallel_apply(0, acc_units_.size(),
                           [&](std::size_t u) { job(acc_units_[u]); });
    } else {
      for (const std::size_t i : acc_units_) job(i);
    }

    // Serial finalize in level order: grow children, partition slots.
    next_.clear();
    next_.reserve(static_cast<std::size_t>(units) * 2);
    for (const LevelNode& ln : level) {
      if (ln.hist < 0) {
        make_leaf(ln);
        continue;
      }
      const Split& sp = splits_[static_cast<std::size_t>(ln.hist)];
      if (!sp.found) {
        make_leaf(ln);
        continue;
      }
      const std::size_t feature = pool_[sp.slot];
      const std::uint8_t* col = qm_.column(feature);
      const auto split_bin = static_cast<std::uint8_t>(sp.bin);
      // Stable in-place partition via a scratch buffer for the right
      // side (std::stable_partition would allocate one per call). The
      // side a row lands on is a coin flip to the branch predictor, so
      // both sides are written unconditionally and the write cursors
      // advance by the comparison result instead of branching.
      std::uint32_t* const rbuf = part_scratch_.data();
      std::size_t out = ln.lo, n_right = 0;
      for (std::size_t k = ln.lo; k < ln.hi; ++k) {
        const std::uint32_t r = slots_[k];
        const bool goes_left = col[r] <= split_bin;
        slots_[out] = r;
        rbuf[n_right] = r;
        out += goes_left;
        n_right += !goes_left;
      }
      std::copy(part_scratch_.begin(),
                part_scratch_.begin() + static_cast<std::ptrdiff_t>(n_right),
                slots_.begin() + static_cast<std::ptrdiff_t>(out));
      const auto mid = static_cast<std::uint32_t>(out);
      CEAL_ENSURE(mid > ln.lo && mid < ln.hi);
      CEAL_ENSURE(mid - ln.lo == sp.n_left);

      nodes.emplace_back();
      const auto left_id = static_cast<std::int32_t>(nodes.size() - 1);
      nodes.emplace_back();
      const auto right_id = static_cast<std::int32_t>(nodes.size() - 1);
      RegressionTree::Node& self = nodes[static_cast<std::size_t>(ln.node)];
      self.feature = feature;
      self.threshold = qm_.split_value(feature, sp.bin);
      self.left = left_id;
      self.right = right_id;

      const auto child_base = static_cast<std::int32_t>(next_.size());
      LevelNode left;
      left.lo = ln.lo;
      left.hi = mid;
      left.node = left_id;
      left.g_sum = sp.g_left;
      left.h_sum = sp.h_left;
      left.parent_hist = ln.hist;
      left.sibling = child_base + 1;
      LevelNode right;
      right.lo = mid;
      right.hi = ln.hi;
      right.node = right_id;
      right.g_sum = ln.g_sum - sp.g_left;
      right.h_sum = ln.h_sum - sp.h_left;
      right.parent_hist = ln.hist;
      right.sibling = child_base;
      next_.push_back(left);
      next_.push_back(right);
    }
    prev_g_.swap(curr_g_);
    prev_n_.swap(curr_n_);
    prev_bits_.swap(curr_bits_);
    if (!unit_hessian_) prev_h_.swap(curr_h_);
    std::swap(level, next_);
  }
}

}  // namespace ceal::ml
