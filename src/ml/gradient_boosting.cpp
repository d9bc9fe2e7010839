#include "ml/gradient_boosting.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace gpuperf::ml {

GradientBoosting::GradientBoosting(BoostingParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  GP_CHECK(params_.n_rounds >= 1);
  GP_CHECK(params_.learning_rate > 0.0 && params_.learning_rate <= 1.0);
  GP_CHECK(params_.lambda >= 0.0);
  GP_CHECK(params_.subsample > 0.0 && params_.subsample <= 1.0);
}

void GradientBoosting::fit(const Dataset& data) {
  GP_CHECK_MSG(data.size() >= 2, "boosting needs at least 2 rows");
  n_features_ = data.n_features();
  trees_.clear();
  Rng rng(seed_);

  base_score_ = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) base_score_ += data.target(i);
  base_score_ /= static_cast<double>(data.size());

  std::vector<double> pred(data.size(), base_score_);
  std::vector<std::size_t> all_rows(data.size());
  std::iota(all_rows.begin(), all_rows.end(), 0);

  const std::size_t n_sub = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(
             params_.subsample * static_cast<double>(data.size()))));

  for (std::size_t round = 0; round < params_.n_rounds; ++round) {
    // Residuals are the negative gradient of the squared loss.
    Dataset residuals(data.feature_names(), "residual");
    for (std::size_t i = 0; i < data.size(); ++i)
      residuals.add_row(data.row(i), data.target(i) - pred[i]);

    std::vector<std::size_t> rows = all_rows;
    if (n_sub < rows.size()) {
      rng.shuffle(rows);
      rows.resize(n_sub);
    }

    auto tree = std::make_unique<DecisionTree>(params_.tree);
    tree->fit_indexed(residuals, rows, nullptr);

    // XGBoost leaf value for squared loss is sum(g)/(n + lambda); the
    // CART leaf holds mean(g) = sum(g)/n, so scale by n/(n + lambda).
    if (params_.lambda > 0.0) {
      auto nodes = tree->nodes();
      for (auto& node : nodes) {
        if (node.feature == DecisionTree::Node::kLeaf && node.n_samples > 0) {
          const double n = static_cast<double>(node.n_samples);
          node.value *= n / (n + params_.lambda);
        }
      }
      tree->restore(std::move(nodes), tree->feature_importances(),
                    n_features_);
    }

    for (std::size_t i = 0; i < data.size(); ++i)
      pred[i] += params_.learning_rate * tree->predict(data.row(i));
    trees_.push_back(std::move(tree));

    // Early exit once the training residuals are numerically dead;
    // keeps tiny datasets from growing hundreds of identical stumps.
    double max_res = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i)
      max_res = std::max(max_res, std::fabs(data.target(i) - pred[i]));
    if (max_res < 1e-10) break;
  }
  fitted_ = true;
}

double GradientBoosting::predict_row(std::span<const double> x) const {
  GP_CHECK_MSG(fitted_, "predict before fit");
  GP_CHECK(x.size() == n_features_);
  double y = base_score_;
  for (const auto& t : trees_) y += params_.learning_rate * t->predict(x);
  return y;
}

const DecisionTree& GradientBoosting::tree(std::size_t i) const {
  GP_CHECK(i < trees_.size());
  return *trees_[i];
}

void GradientBoosting::restore(
    std::vector<std::unique_ptr<DecisionTree>> trees, double base_score,
    double learning_rate, std::size_t n_features) {
  GP_CHECK_MSG(!trees.empty(), "boosting restore needs at least one tree");
  GP_CHECK(learning_rate > 0.0 && learning_rate <= 1.0);
  GP_CHECK(n_features >= 1);
  for (const auto& t : trees) GP_CHECK(t != nullptr && t->is_fitted());
  trees_ = std::move(trees);
  base_score_ = base_score;
  params_.learning_rate = learning_rate;
  params_.n_rounds = trees_.size();
  n_features_ = n_features;
  fitted_ = true;
}

std::vector<double> GradientBoosting::feature_importances() const {
  GP_CHECK_MSG(fitted_, "importances before fit");
  std::vector<double> out(n_features_, 0.0);
  for (const auto& t : trees_) {
    const auto imp = t->feature_importances();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += imp[i];
  }
  double total = 0.0;
  for (double v : out) total += v;
  if (total > 0.0)
    for (double& v : out) v /= total;
  return out;
}

}  // namespace gpuperf::ml
