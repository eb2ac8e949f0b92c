#include "ml/serialize.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/error.h"

namespace ceal::ml {

namespace {

// Doubles are stored as C99 hex-floats: exact round trip, no locale.
std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_hex_double(const std::string& token) {
  // save_gbt only ever emits C99 hex-floats; accepting anything else
  // (decimal strings, "nan", partial parses) would let a corrupted file
  // load with silently wrong values.
  std::size_t digits = 0;
  if (digits < token.size() &&
      (token[digits] == '+' || token[digits] == '-')) {
    ++digits;
  }
  CEAL_EXPECT_MSG(digits + 1 < token.size() && token[digits] == '0' &&
                      (token[digits + 1] == 'x' || token[digits + 1] == 'X'),
                  "malformed double in model file (expected hex-float): " +
                      token);
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  CEAL_EXPECT_MSG(end != nullptr && *end == '\0' &&
                      end != token.c_str() && std::isfinite(v),
                  "malformed double in model file: " + token);
  return v;
}

std::string next_line(std::istream& is) {
  std::string line;
  CEAL_EXPECT_MSG(static_cast<bool>(std::getline(is, line)),
                  "unexpected end of model file");
  return line;
}

}  // namespace

std::string method_name(TreeMethod m) {
  switch (m) {
    case TreeMethod::kExact: return "exact";
    case TreeMethod::kQuantized: return "quantized";
  }
  CEAL_EXPECT_MSG(false, "unknown tree method");
  return {};
}

TreeMethod parse_method(const std::string& name) {
  if (name == "exact") return TreeMethod::kExact;
  // Files written before the histogram trainer was folded into the
  // quantized one say "hist"; both search the same quantile-bin
  // candidates, and loading only reads the stored trees.
  if (name == "quantized" || name == "hist") return TreeMethod::kQuantized;
  CEAL_EXPECT_MSG(false, "unknown tree method in model file: " + name);
  return TreeMethod::kExact;
}

void save_gbt(const GradientBoostedTrees& model, std::ostream& os,
              std::size_t n_features) {
  CEAL_EXPECT_MSG(model.is_fitted(), "cannot save an unfitted model");
  CEAL_EXPECT(n_features > 0);
  // Models that only use v1 features keep writing v1 files, so existing
  // default-path artifacts stay byte-identical across this change.
  const GbtParams& p = model.params();
  const bool needs_v2 =
      p.tree.method != TreeMethod::kExact || p.compile_predictor;
  os << "gbt " << (needs_v2 ? "v2 " : "v1 ") << n_features << ' '
     << model.tree_count() << ' ' << hex_double(p.learning_rate) << ' '
     << hex_double(model.base_score()) << '\n';
  if (needs_v2) {
    os << "params " << method_name(p.tree.method) << ' ' << p.tree.max_bins
       << ' ' << (p.compile_predictor ? 1 : 0) << '\n';
  }
  for (const auto& tree : model.trees()) {
    const auto nodes = tree.export_nodes();
    os << "tree " << nodes.size() << '\n';
    for (const TreeNodeData& n : nodes) {
      os << "node " << n.feature << ' ' << hex_double(n.threshold) << ' '
         << n.left << ' ' << n.right << ' ' << hex_double(n.weight)
         << '\n';
    }
  }
  CEAL_EXPECT_MSG(static_cast<bool>(os), "write failure while saving model");
}

LoadedGbt load_gbt(std::istream& is) {
  std::istringstream header(next_line(is));
  std::string magic, version;
  std::size_t n_features = 0, n_trees = 0;
  std::string lr_token, base_token;
  header >> magic >> version >> n_features >> n_trees >> lr_token >>
      base_token;
  CEAL_EXPECT_MSG(magic == "gbt" && (version == "v1" || version == "v2"),
                  "not a CEAL gbt v1/v2 model file");
  CEAL_EXPECT_MSG(n_features > 0 && n_trees > 0,
                  "model file declares an empty model");

  GbtParams params;
  params.n_rounds = n_trees;
  params.learning_rate = parse_hex_double(lr_token);
  const double base_score = parse_hex_double(base_token);

  if (version == "v2") {
    std::istringstream params_line(next_line(is));
    std::string tag, method;
    std::size_t max_bins = 0;
    int compiled = -1;
    params_line >> tag >> method >> max_bins >> compiled;
    CEAL_EXPECT_MSG(tag == "params" && !params_line.fail() &&
                        (compiled == 0 || compiled == 1),
                    "malformed params line in model file");
    CEAL_EXPECT_MSG(max_bins >= 2 && max_bins <= kMaxBins,
                    "model file max_bins " + std::to_string(max_bins) +
                        " outside [2, " + std::to_string(kMaxBins) + "]");
    params.tree.method = parse_method(method);
    params.tree.max_bins = max_bins;
    params.compile_predictor = compiled == 1;
  }

  std::vector<RegressionTree> trees;
  trees.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    std::istringstream tree_header(next_line(is));
    std::string tag;
    std::size_t n_nodes = 0;
    tree_header >> tag >> n_nodes;
    CEAL_EXPECT_MSG(tag == "tree" && n_nodes > 0,
                    "malformed tree header in model file");
    std::vector<TreeNodeData> nodes;
    nodes.reserve(n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      std::istringstream node_line(next_line(is));
      std::string node_tag, threshold_token, weight_token;
      TreeNodeData d;
      node_line >> node_tag >> d.feature >> threshold_token >> d.left >>
          d.right >> weight_token;
      CEAL_EXPECT_MSG(node_tag == "node" && !node_line.fail(),
                      "malformed node line in model file");
      CEAL_EXPECT_MSG(d.feature < n_features,
                      "node references a feature beyond n_features");
      d.threshold = parse_hex_double(threshold_token);
      d.weight = parse_hex_double(weight_token);
      nodes.push_back(d);
    }
    trees.push_back(RegressionTree::import_nodes(nodes));
  }

  // A model file ends after its last tree; anything further is
  // corruption (e.g. a concatenated or doubled file), not padding.
  std::string tail;
  while (std::getline(is, tail)) {
    CEAL_EXPECT_MSG(tail.find_first_not_of(" \t\r") == std::string::npos,
                    "trailing garbage after the last tree in model file");
  }

  LoadedGbt out{GradientBoostedTrees::from_parts(params, base_score,
                                                 std::move(trees)),
                n_features};
  return out;
}

void save_gbt_file(const GradientBoostedTrees& model,
                   const std::string& path, std::size_t n_features) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  save_gbt(model, os, n_features);
}

LoadedGbt load_gbt_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  return load_gbt(is);
}

}  // namespace ceal::ml
