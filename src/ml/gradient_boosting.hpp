// Gradient-boosted regression trees in the XGBoost style: squared-error
// objective (gradient = residual, hessian = 1), shrinkage (eta), L2 leaf
// regularization (lambda, folded into leaf values as n/(n+lambda)), and
// optional row subsampling per boosting round.
#pragma once

#include <memory>

#include "ml/decision_tree.hpp"
#include "ml/regressor.hpp"

namespace gpuperf::ml {

struct BoostingParams {
  std::size_t n_rounds = 200;
  double learning_rate = 0.1;   // eta
  double lambda = 1.0;          // L2 leaf regularization
  double subsample = 1.0;       // row fraction per round (without repl.)
  TreeParams tree{.max_depth = 4,
                  .min_samples_split = 2,
                  .min_samples_leaf = 1,
                  .max_features = 0};
};

class GradientBoosting final : public Regressor {
 public:
  explicit GradientBoosting(BoostingParams params = {},
                            std::uint64_t seed = 42);

  std::string name() const override { return "XG Boost"; }
  void fit(const Dataset& data) override;
  bool is_fitted() const override { return fitted_; }
  std::size_t n_features() const override { return n_features_; }

  /// Mean of member trees' normalized importances.
  std::vector<double> feature_importances() const override;

  std::size_t round_count() const { return trees_.size(); }
  double base_score() const { return base_score_; }
  double learning_rate() const { return params_.learning_rate; }
  const DecisionTree& tree(std::size_t i) const;

  /// Rebuild from serialized state (model_io).
  void restore(std::vector<std::unique_ptr<DecisionTree>> trees,
               double base_score, double learning_rate,
               std::size_t n_features);

 protected:
  double predict_row(std::span<const double> x) const override;

 private:
  BoostingParams params_;
  std::uint64_t seed_;
  bool fitted_ = false;
  double base_score_ = 0.0;  // initial prediction: mean target
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  std::size_t n_features_ = 0;
};

}  // namespace gpuperf::ml
