// Property tests for the GBT model file format: randomized
// hyper-parameter configurations must round-trip through save/load with
// bitwise-identical predictions, and malformed files must throw
// PreconditionError (never crash or load silently wrong values).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "ml/gbt.h"
#include "ml/serialize.h"

namespace ceal::ml {
namespace {

constexpr std::size_t kFeatures = 4;

Dataset random_data(std::size_t n, ceal::Rng& rng) {
  Dataset d(kFeatures);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(kFeatures);
    for (double& v : row) v = rng.uniform(-8.0, 8.0);
    d.add(row, row[0] * row[1] - 3.0 * row[2] + rng.uniform01());
  }
  return d;
}

GbtParams random_params(ceal::Rng& rng) {
  GbtParams p;
  p.n_rounds = 1 + rng.uniform_u64(60);
  p.learning_rate = rng.uniform(0.01, 1.0);
  p.subsample = rng.uniform(0.5, 1.0);
  p.tree.max_depth = 1 + rng.uniform_u64(7);
  p.tree.min_samples_leaf = 1 + rng.uniform_u64(4);
  p.tree.min_child_weight = rng.uniform(0.0, 2.0);
  p.tree.lambda = rng.uniform(0.0, 3.0);
  p.tree.gamma = rng.uniform(0.0, 0.5);
  p.tree.colsample = rng.uniform(0.5, 1.0);
  if (rng.bernoulli(0.5)) {
    p.tree.method = TreeMethod::kQuantized;
    p.tree.max_bins = 2 + rng.uniform_u64(255);
  }
  return p;
}

TEST(SerializeProperties, RandomModelsRoundTripBitwise) {
  ceal::Rng rng(20260806);
  for (int trial = 0; trial < 12; ++trial) {
    const GbtParams params = random_params(rng);
    const Dataset train = random_data(80 + rng.uniform_u64(80), rng);
    GradientBoostedTrees model(params);
    model.fit(train, rng);

    std::stringstream buffer;
    save_gbt(model, buffer, kFeatures);
    const LoadedGbt loaded = load_gbt(buffer);

    ASSERT_EQ(loaded.n_features, kFeatures) << "trial " << trial;
    ASSERT_EQ(loaded.model.tree_count(), model.tree_count())
        << "trial " << trial;
    const Dataset probe = random_data(50, rng);
    for (std::size_t i = 0; i < probe.size(); ++i) {
      // Bitwise equality, not a tolerance: hex-float doubles round-trip
      // every node threshold and leaf weight exactly.
      ASSERT_EQ(loaded.model.predict(probe.row(i)),
                model.predict(probe.row(i)))
          << "trial " << trial << " row " << i;
    }
  }
}

// ---- Malformed corpus: every entry must throw PreconditionError.

std::string valid_model_text() {
  ceal::Rng rng(1);
  const Dataset train = random_data(60, rng);
  GradientBoostedTrees model;
  model.fit(train, rng);
  std::stringstream buffer;
  save_gbt(model, buffer, kFeatures);
  return buffer.str();
}

TEST(SerializeProperties, RejectsTruncatedHeader) {
  for (const char* text : {"", "gbt", "gbt v1", "gbt v1 4",
                           "gbt v1 4 2", "gbt v1 4 2 0x1p-3"}) {
    std::stringstream is(text);
    EXPECT_THROW(load_gbt(is), ceal::PreconditionError) << "'" << text << "'";
  }
}

TEST(SerializeProperties, RejectsEveryPrefixTruncation) {
  const std::string text = valid_model_text();
  // Cut the file at every line boundary except the last: all must throw.
  for (std::size_t pos = text.find('\n'); pos + 1 < text.size();
       pos = text.find('\n', pos + 1)) {
    std::stringstream is(text.substr(0, pos + 1));
    EXPECT_THROW(load_gbt(is), ceal::PreconditionError)
        << "truncated at byte " << pos;
  }
}

TEST(SerializeProperties, RejectsOutOfRangeNodeIndices) {
  // Left child beyond the node table.
  std::stringstream left(
      "gbt v1 2 1 0x1p-3 0x0p+0\n"
      "tree 1\n"
      "node 0 0x0p+0 9 -1 0x1p+0\n");
  EXPECT_THROW(load_gbt(left), ceal::PreconditionError);
  // Right child beyond the node table.
  std::stringstream right(
      "gbt v1 2 1 0x1p-3 0x0p+0\n"
      "tree 3\n"
      "node 0 0x0p+0 1 7 0x0p+0\n"
      "node 0 0x0p+0 -1 -1 0x1p+0\n"
      "node 0 0x0p+0 -1 -1 0x1p+1\n");
  EXPECT_THROW(load_gbt(right), ceal::PreconditionError);
  // Feature index beyond the declared feature count.
  std::stringstream feature(
      "gbt v1 2 1 0x1p-3 0x0p+0\n"
      "tree 1\n"
      "node 3 0x0p+0 -1 -1 0x1p+0\n");
  EXPECT_THROW(load_gbt(feature), ceal::PreconditionError);
}

TEST(SerializeProperties, RejectsNonHexDoubles) {
  // Decimal literals parse with strtod but are not what save_gbt emits;
  // accepting them would mask corruption. All doubles must be hex-floats.
  std::stringstream header("gbt v1 2 1 0.125 0x0p+0\n");
  EXPECT_THROW(load_gbt(header), ceal::PreconditionError);
  std::stringstream threshold(
      "gbt v1 2 1 0x1p-3 0x0p+0\n"
      "tree 1\n"
      "node 0 0.5 -1 -1 0x1p+0\n");
  EXPECT_THROW(load_gbt(threshold), ceal::PreconditionError);
  std::stringstream weight(
      "gbt v1 2 1 0x1p-3 0x0p+0\n"
      "tree 1\n"
      "node 0 0x0p+0 -1 -1 nan\n");
  EXPECT_THROW(load_gbt(weight), ceal::PreconditionError);
  std::stringstream garbage(
      "gbt v1 2 1 0x1p-3 0x0p+0\n"
      "tree 1\n"
      "node 0 0x1p+0zzz -1 -1 0x1p+0\n");
  EXPECT_THROW(load_gbt(garbage), ceal::PreconditionError);
}

TEST(SerializeProperties, RejectsTrailingGarbage) {
  std::string text = valid_model_text();
  {
    std::stringstream doubled(text + text);  // two concatenated models
    EXPECT_THROW(load_gbt(doubled), ceal::PreconditionError);
  }
  {
    std::stringstream junk(text + "node 0 0x0p+0 -1 -1 0x1p+0\n");
    EXPECT_THROW(load_gbt(junk), ceal::PreconditionError);
  }
  {
    // Trailing blank lines are tolerated — they are not corruption.
    std::stringstream padded(text + "\n  \n");
    EXPECT_NO_THROW(load_gbt(padded));
  }
}

TEST(SerializeProperties, MutatedTokensNeverCrash) {
  const std::string text = valid_model_text();
  ceal::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = text;
    const std::size_t pos = rng.uniform_u64(mutated.size());
    const char replacement = static_cast<char>(33 + rng.uniform_u64(94));
    mutated[pos] = replacement;
    std::stringstream is(mutated);
    try {
      const LoadedGbt loaded = load_gbt(is);
      (void)loaded;  // a benign mutation may still parse — that's fine
    } catch (const ceal::PreconditionError&) {
      // expected for corrupting mutations
    }
    // Anything else (segfault, std::bad_alloc, uncaught logic error)
    // fails the test by escaping.
  }
}

}  // namespace
}  // namespace ceal::ml
