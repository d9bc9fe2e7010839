#include "ml/random_forest.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace gpuperf::ml {

RandomForest::RandomForest(ForestParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  GP_CHECK(params_.n_trees >= 1);
  GP_CHECK(params_.bootstrap_fraction > 0.0 &&
           params_.bootstrap_fraction <= 1.0);
}

void RandomForest::fit(const Dataset& data) {
  GP_CHECK_MSG(data.size() >= 2, "forest needs at least 2 rows");
  n_features_ = data.n_features();

  std::size_t max_features = params_.max_features;
  if (max_features == 0)
    max_features = static_cast<std::size_t>(
        std::ceil(static_cast<double>(n_features_) / 3.0));
  max_features = std::min(max_features, n_features_);

  const std::size_t n_draw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             params_.bootstrap_fraction * static_cast<double>(data.size()))));

  trees_.clear();
  trees_.resize(params_.n_trees);

  ThreadPool::shared().parallel_for(params_.n_trees, [&](std::size_t t) {
    // Stream derived from (seed, tree index) only — independent of the
    // thread that runs the task.
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
    std::vector<std::size_t> rows(n_draw);
    for (auto& r : rows) r = rng.uniform_index(data.size());

    TreeParams tp = params_.tree;
    tp.max_features = max_features;
    auto tree = std::make_unique<DecisionTree>(tp);
    tree->fit_indexed(data, rows, &rng);
    trees_[t] = std::move(tree);
  });
}

double RandomForest::predict_row(std::span<const double> x) const {
  GP_CHECK_MSG(is_fitted(), "predict before fit");
  double sum = 0.0;
  for (const auto& t : trees_) sum += t->predict(x);
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::feature_importances() const {
  GP_CHECK_MSG(is_fitted(), "importances before fit");
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

const DecisionTree& RandomForest::tree(std::size_t i) const {
  GP_CHECK(i < trees_.size());
  return *trees_[i];
}

void RandomForest::restore(std::vector<std::unique_ptr<DecisionTree>> trees,
                           std::size_t n_features) {
  GP_CHECK_MSG(!trees.empty(), "forest restore needs at least one tree");
  GP_CHECK(n_features >= 1);
  for (const auto& t : trees) GP_CHECK(t != nullptr && t->is_fitted());
  trees_ = std::move(trees);
  n_features_ = n_features;
  params_.n_trees = trees_.size();
}

}  // namespace gpuperf::ml
