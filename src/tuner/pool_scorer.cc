#include "tuner/pool_scorer.h"

#include <algorithm>

#include "core/error.h"
#include "core/telemetry.h"
#include "ml/dataset.h"
#include "tuner/low_fidelity.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

namespace {

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
    if (telemetry != nullptr) {
      telemetry->count("pool.chunks");
      telemetry->count("pool.chunk.rows", len);
    }
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

std::vector<double> PoolScorer::low_fidelity_scores(
    const LowFidelityModel& model) const {
  const config::CompositeSpace& composite = workflow_->space();
  return score_in_blocks(
      configs_.size(), chunk_rows_, telemetry_,
      [&](std::size_t first, std::size_t len) {
        std::vector<ml::FeatureMatrix> blocks;
        blocks.reserve(workflow_->component_count());
        for (std::size_t j = 0; j < workflow_->component_count(); ++j) {
          const config::ConfigSpace& space = composite.component_space(j);
          ml::FeatureMatrix& block = blocks.emplace_back(space.dimension(), len);
          for (std::size_t i = 0; i < len; ++i) {
            block.set_row(i,
                          space.features(composite.slice(configs_[first + i], j)));
          }
        }
        return model.score_many(blocks);
      });
}

}  // namespace ceal::tuner
