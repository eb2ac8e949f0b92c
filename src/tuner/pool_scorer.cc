#include "tuner/pool_scorer.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/error.h"
#include "core/telemetry.h"
#include "ml/dataset.h"
#include "tuner/low_fidelity.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

namespace {

/// Books one block of `len` rows on the "pool.chunks"/"pool.chunk.rows"
/// counters.
void count_chunk(telemetry::Telemetry* telemetry, std::size_t len) {
  if (telemetry != nullptr) {
    telemetry->count("pool.chunks");
    telemetry->count("pool.chunk.rows", len);
  }
}

/// Calls `score_block(first, len)` for consecutive blocks of at most
/// `chunk_rows` of the `n` pool rows, each under its own "pool.chunk"
/// span, and stores the block's scores at out[first, first + len).
template <typename ScoreBlock>
std::vector<double> score_in_blocks(std::size_t n, std::size_t chunk_rows,
                                    telemetry::Telemetry* telemetry,
                                    ScoreBlock&& score_block) {
  std::vector<double> out(n);
  for (std::size_t first = 0; first < n; first += chunk_rows) {
    const std::size_t len = std::min(chunk_rows, n - first);
    telemetry::ScopedSpan span(telemetry, "pool.chunk");
    count_chunk(telemetry, len);
    const std::vector<double> scores = score_block(first, len);
    std::copy(scores.begin(), scores.end(), out.begin() + first);
  }
  return out;
}

}  // namespace

PoolScorer::PoolScorer(const sim::InSituWorkflow& workflow,
                       std::span<const config::Configuration> configs,
                       std::size_t chunk_rows,
                       telemetry::Telemetry* telemetry)
    : workflow_(&workflow),
      configs_(configs),
      chunk_rows_(chunk_rows),
      telemetry_(telemetry) {
  CEAL_EXPECT_MSG(chunk_rows_ >= 1, "pool scoring needs chunk_rows >= 1");
}

std::vector<double> PoolScorer::joint_scores(
    const JointBlockScorer& score_block) const {
  const config::ConfigSpace& space = workflow_->joint_space();
  return score_in_blocks(
      configs_.size(), chunk_rows_, telemetry_,
      [&](std::size_t first, std::size_t len) {
        ml::FeatureMatrix block(space.dimension(), len);
        for (std::size_t i = 0; i < len; ++i) {
          block.set_row(i, space.features(configs_[first + i]));
        }
        return score_block(first, block);
      });
}

std::vector<double> PoolScorer::surrogate_scores(
    const Surrogate& surrogate) const {
  return joint_scores([&](std::size_t, const ml::FeatureMatrix& block) {
    return surrogate.predict_many(block);
  });
}

void PoolScorer::component_predictions(const ComponentModelSet& components,
                                       std::size_t j,
                                       const RowSink& sink) const {
  const config::CompositeSpace& composite = workflow_->space();
  const config::ConfigSpace& space = composite.component_space(j);
  const auto [begin, end] = composite.slice_range(j);
  const std::size_t dim = end - begin;
  const std::size_t joint_dim = workflow_->joint_space().dimension();

  // (flat index of the row's slice, row), sorted by key: equal slices
  // become runs, and the runs come in ascending key order.
  std::vector<std::pair<std::uint64_t, std::size_t>> keys(configs_.size());
  const auto slice_of = [&](std::size_t row) {
    const std::span<const int> joint(configs_[row]);
    CEAL_EXPECT(joint.size() == joint_dim);
    return joint.subspan(begin, dim);
  };
  for (std::size_t row = 0; row < configs_.size(); ++row) {
    keys[row] = {space.flat_index(slice_of(row)), row};
  }
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Start of each run of the current block in `keys`, plus its end.
  std::vector<std::size_t> runs;
  runs.reserve(std::min(chunk_rows_, keys.size()) + 1);
  std::size_t distinct = 0;
  for (std::size_t next = 0; next < keys.size();) {
    runs.clear();
    while (next < keys.size() && runs.size() < chunk_rows_) {
      runs.push_back(next);
      const std::uint64_t key = keys[next].first;
      while (next < keys.size() && keys[next].first == key) ++next;
    }
    runs.push_back(next);
    const std::size_t len = runs.size() - 1;
    distinct += len;

    telemetry::ScopedSpan span(telemetry_, "pool.chunk");
    count_chunk(telemetry_, len);
    ml::FeatureMatrix block(dim, len);
    for (std::size_t r = 0; r < len; ++r) {
      space.features(slice_of(keys[runs[r]].second), block.mutable_row(r));
    }
    const std::vector<double> predictions = components.predict_many(j, block);
    for (std::size_t r = 0; r < len; ++r) {
      for (std::size_t at = runs[r]; at < runs[r + 1]; ++at) {
        sink(keys[at].second, predictions[r]);
      }
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->count("pool.distinct_slices", distinct);
  }
}

std::vector<double> PoolScorer::low_fidelity_scores(
    const LowFidelityModel& model) const {
  std::vector<double> out(configs_.size(), LowFidelityModel::kCombineSeed);
  for (std::size_t j = 0; j < workflow_->component_count(); ++j) {
    component_predictions(model.components(), j,
                          [&](std::size_t row, double prediction) {
                            out[row] = model.combine(out[row], prediction);
                          });
  }
  return out;
}

}  // namespace ceal::tuner
