// Pool scoring: the one path by which every tuner scores C_pool.
//
// The tuners score the whole candidate pool with the low-fidelity
// combination model and/or the high-fidelity surrogate on every
// iteration (Algorithm 1 rescans the pool each pass). A joint scoring
// pass walks the pool in consecutive blocks of at most chunk_rows rows:
// featurize one block on the calling thread, score it in one batch
// (predictions are parallel over rows inside the model), move on.
//
// The low-fidelity pass exploits that M_L (§4, Eqns. 1-2) sees a joint
// configuration only through its per-component slices c_j, and a pool
// repeats slices heavily (a 200k LV pool holds ~64k distinct slices per
// component). Per component it keys every row by the flat index of its
// slice, read in place from the joint configuration, sorts and
// de-duplicates the keys, and predicts each distinct slice once, in
// ascending key order and in blocks of at most chunk_rows slices.
// Neighbouring keys take the same tree paths, so this order also
// predicts faster than pool order.
//
// Memory: no pool-sized feature matrix ever exists, so a pool of
// millions of configurations is scored in bounded memory. The O(pool)
// state is the score vector itself (8 bytes/row) plus, during a
// low-fidelity pass, a transient (key, row) array of 16 bytes/row for
// one component at a time; a block holds at most chunk_rows feature
// rows and their predictions. Scores are bitwise equal to the per-row
// Surrogate::predict / LowFidelityModel::score for any block size and
// thread count, because featurization and both models are
// row-independent and components fold in ascending j.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "config/config_space.h"
#include "sim/workflow.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::ml {
class FeatureMatrix;
}

namespace ceal::tuner {

class ComponentModelSet;
class LowFidelityModel;
class Surrogate;

class PoolScorer {
 public:
  /// Scores `configs` (joint configurations of `workflow`) in blocks of
  /// `chunk_rows` >= 1 rows. `telemetry` (nullable) receives one
  /// "pool.chunk" span plus "pool.chunks"/"pool.chunk.rows" counts per
  /// block.
  PoolScorer(const sim::InSituWorkflow& workflow,
             std::span<const config::Configuration> configs,
             std::size_t chunk_rows, telemetry::Telemetry* telemetry);

  std::size_t size() const { return configs_.size(); }

  /// Scores one block: `block` holds the joint features of the pool rows
  /// [first, first + block.size()); returns one score per row.
  using JointBlockScorer = std::function<std::vector<double>(
      std::size_t first, const ml::FeatureMatrix& block)>;

  /// Scores for every pool configuration from its joint features, one
  /// `score_block` call per block, blocks in pool order.
  std::vector<double> joint_scores(const JointBlockScorer& score_block) const;

  /// Surrogate predictions for every pool configuration (featurizes the
  /// joint rows only).
  std::vector<double> surrogate_scores(const Surrogate& surrogate) const;

  /// Receives one pool row's value: sink(row, value).
  using RowSink = std::function<void(std::size_t row, double value)>;

  /// Component j's prediction at every pool row's slice c_j, passed to
  /// `sink` once per row (rows in ascending slice-key order). Each
  /// distinct slice is predicted once; each block of distinct slices
  /// runs under a "pool.chunk" span, and `telemetry` also counts
  /// "pool.distinct_slices".
  void component_predictions(const ComponentModelSet& components,
                             std::size_t j, const RowSink& sink) const;

  /// Low-fidelity combination-model scores for every pool configuration:
  /// component_predictions() folded in ascending j.
  std::vector<double> low_fidelity_scores(const LowFidelityModel& model)
      const;

 private:
  const sim::InSituWorkflow* workflow_;
  std::span<const config::Configuration> configs_;
  std::size_t chunk_rows_;
  telemetry::Telemetry* telemetry_;
};

}  // namespace ceal::tuner
