// Random Forest regression: bagged CART trees with per-node feature
// subsampling, averaged at prediction time.  Trees train in parallel on
// the shared thread pool with per-tree deterministic RNG streams, so
// the forest is reproducible regardless of thread scheduling.
#pragma once

#include <memory>

#include "ml/decision_tree.hpp"
#include "ml/regressor.hpp"

namespace gpuperf::ml {

struct ForestParams {
  std::size_t n_trees = 100;
  TreeParams tree;
  /// Fraction of rows drawn (with replacement) per tree.
  double bootstrap_fraction = 1.0;
  /// 0 = default max_features of ceil(n_features / 3), the classic
  /// regression-forest heuristic; otherwise an explicit subset size.
  std::size_t max_features = 0;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestParams params = {}, std::uint64_t seed = 42);

  std::string name() const override { return "Random Forest Tree"; }
  void fit(const Dataset& data) override;
  bool is_fitted() const override { return !trees_.empty(); }
  std::size_t n_features() const override { return n_features_; }

  /// Mean of the member trees' normalized importances.
  std::vector<double> feature_importances() const override;

  std::size_t tree_count() const { return trees_.size(); }
  const DecisionTree& tree(std::size_t i) const;

  /// Rebuild from serialized state (model_io).
  void restore(std::vector<std::unique_ptr<DecisionTree>> trees,
               std::size_t n_features);

 protected:
  double predict_row(std::span<const double> x) const override;

 private:
  ForestParams params_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  std::size_t n_features_ = 0;
};

}  // namespace gpuperf::ml
