// CART regression tree — the paper's winning model (Table II) and the
// source of its Table III feature importances.
//
// Splits are exact greedy: for every feature the rows are sorted and
// every midpoint between distinct adjacent values is scored by sum-of-
// squared-error reduction (variance impurity — the regression analogue
// of the paper's "Gini Coefficient" importance).  Importances are the
// per-feature totals of weighted impurity decrease, normalized to 1.
#pragma once

#include <cstdint>
#include <limits>

#include "ml/regressor.hpp"

namespace gpuperf::ml {

struct TreeParams {
  std::size_t max_depth = 12;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// Features examined per split: 0 = all (plain CART); forests pass
  /// a subset size for decorrelation.
  std::size_t max_features = 0;
};

class DecisionTree final : public Regressor {
 public:
  explicit DecisionTree(TreeParams params = {});

  std::string name() const override { return "Decision Tree"; }
  void fit(const Dataset& data) override;
  bool is_fitted() const override { return !nodes_.empty(); }
  std::vector<double> feature_importances() const override;
  std::size_t n_features() const override { return n_features_; }

  /// Fit on an index subset of `data` (bootstrap sample), with an RNG
  /// for feature subsampling.  Used by RandomForest; rng may be null
  /// when max_features == 0.
  void fit_indexed(const Dataset& data, const std::vector<std::size_t>& rows,
                   Rng* rng);

  /// Flat node storage; exposed for serialization and invariants tests.
  struct Node {
    // Leaf iff feature == kLeaf.
    static constexpr std::int32_t kLeaf = -1;
    std::int32_t feature = kLeaf;
    double threshold = 0.0;   // go left iff x[feature] <= threshold
    std::int32_t left = -1;   // child indices into nodes()
    std::int32_t right = -1;
    double value = 0.0;       // leaf prediction (mean of its rows)
    std::uint32_t n_samples = 0;
  };
  const std::vector<Node>& nodes() const { return nodes_; }
  std::size_t depth() const;
  std::size_t leaf_count() const;

  const TreeParams& params() const { return params_; }

  /// Rebuild from serialized state (model_io).
  void restore(std::vector<Node> nodes, std::vector<double> importances,
               std::size_t n_features);

 protected:
  double predict_row(std::span<const double> x) const override;

 private:
  struct BuildContext;
  std::int32_t build_node(BuildContext& ctx, std::vector<std::size_t>& rows,
                          std::size_t depth);

  TreeParams params_;
  std::vector<Node> nodes_;
  std::vector<double> importance_raw_;  // un-normalized impurity decrease
  std::size_t n_features_ = 0;
};

}  // namespace gpuperf::ml
