#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace gpuperf::ml {

DecisionTree::DecisionTree(TreeParams params) : params_(params) {
  GP_CHECK(params_.max_depth >= 1);
  GP_CHECK(params_.min_samples_split >= 2);
  GP_CHECK(params_.min_samples_leaf >= 1);
}

struct DecisionTree::BuildContext {
  const Dataset* data = nullptr;
  Rng* rng = nullptr;
  std::vector<std::size_t> feature_pool;  // scratch for subsampling
};

void DecisionTree::fit(const Dataset& data) {
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0);
  fit_indexed(data, rows, nullptr);
}

void DecisionTree::fit_indexed(const Dataset& data,
                               const std::vector<std::size_t>& rows,
                               Rng* rng) {
  GP_CHECK_MSG(!rows.empty(), "fit on empty row set");
  GP_CHECK(params_.max_features == 0 || rng != nullptr);
  n_features_ = data.n_features();
  nodes_.clear();
  importance_raw_.assign(n_features_, 0.0);

  BuildContext ctx;
  ctx.data = &data;
  ctx.rng = rng;
  ctx.feature_pool.resize(n_features_);
  std::iota(ctx.feature_pool.begin(), ctx.feature_pool.end(), 0);

  std::vector<std::size_t> work = rows;
  build_node(ctx, work, 0);
}

namespace {

/// Sum and sum-of-squares of targets over a row set.
struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;

  void add(double y) {
    sum += y;
    sum_sq += y * y;
    ++n;
  }
  void remove(double y) {
    sum -= y;
    sum_sq -= y * y;
    --n;
  }
  double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
  /// Sum of squared error around the mean (n * variance).
  double sse() const {
    if (n == 0) return 0.0;
    const double s = sum_sq - sum * sum / static_cast<double>(n);
    return s > 0.0 ? s : 0.0;  // clamp negative round-off
  }
};

}  // namespace

std::int32_t DecisionTree::build_node(BuildContext& ctx,
                                      std::vector<std::size_t>& rows,
                                      std::size_t depth) {
  const Dataset& data = *ctx.data;

  Moments all;
  for (std::size_t r : rows) all.add(data.target(r));

  const std::int32_t index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[index].value = all.mean();
  nodes_[index].n_samples = static_cast<std::uint32_t>(rows.size());

  const bool can_split = depth < params_.max_depth &&
                         rows.size() >= params_.min_samples_split &&
                         all.sse() > 1e-12;
  if (!can_split) return index;

  // Choose the candidate feature set for this node.
  const std::size_t n_candidates =
      params_.max_features == 0
          ? n_features_
          : std::min(params_.max_features, n_features_);
  if (n_candidates < n_features_) {
    // Partial Fisher-Yates: the first n_candidates entries become a
    // uniform random subset.
    for (std::size_t i = 0; i < n_candidates; ++i) {
      const std::size_t j =
          i + ctx.rng->uniform_index(n_features_ - i);
      std::swap(ctx.feature_pool[i], ctx.feature_pool[j]);
    }
  }

  double best_gain = 0.0;
  std::size_t best_feature = 0;
  double best_threshold = 0.0;

  std::vector<std::size_t> order = rows;  // re-sorted per feature
  for (std::size_t fi = 0; fi < n_candidates; ++fi) {
    const std::size_t f = ctx.feature_pool[fi];
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return data.row(a)[f] < data.row(b)[f];
    });

    Moments left;
    Moments right = all;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      const double y = data.target(order[i]);
      left.add(y);
      right.remove(y);

      const double v = data.row(order[i])[f];
      const double v_next = data.row(order[i + 1])[f];
      if (v_next <= v) continue;  // no midpoint between equal values
      if (left.n < params_.min_samples_leaf ||
          right.n < params_.min_samples_leaf)
        continue;

      const double gain = all.sse() - left.sse() - right.sse();
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = f;
        best_threshold = v + (v_next - v) / 2.0;
      }
    }
  }

  if (best_gain <= 0.0) return index;  // no useful split found

  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (std::size_t r : rows) {
    (data.row(r)[best_feature] <= best_threshold ? left_rows : right_rows)
        .push_back(r);
  }
  GP_DCHECK(!left_rows.empty() && !right_rows.empty());

  importance_raw_[best_feature] += best_gain;
  rows.clear();
  rows.shrink_to_fit();  // free before recursing

  const std::int32_t left = build_node(ctx, left_rows, depth + 1);
  const std::int32_t right = build_node(ctx, right_rows, depth + 1);
  nodes_[index].feature = static_cast<std::int32_t>(best_feature);
  nodes_[index].threshold = best_threshold;
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

double DecisionTree::predict_row(std::span<const double> x) const {
  GP_CHECK_MSG(is_fitted(), "predict before fit");
  GP_CHECK(x.size() == n_features_);
  std::int32_t i = 0;
  for (;;) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.feature == Node::kLeaf) return n.value;
    i = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                              : n.right;
  }
}

std::vector<double> DecisionTree::feature_importances() const {
  GP_CHECK_MSG(is_fitted(), "importances before fit");
  double total = 0.0;
  for (double v : importance_raw_) total += v;
  std::vector<double> out(importance_raw_.size(), 0.0);
  if (total <= 0.0) return out;  // stump: no splits, no importance
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = importance_raw_[i] / total;
  return out;
}

std::size_t DecisionTree::depth() const {
  GP_CHECK(is_fitted());
  // Iterative depth over the flat representation.
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 1}};
  std::size_t best = 0;
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.feature != Node::kLeaf) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return best;
}

std::size_t DecisionTree::leaf_count() const {
  GP_CHECK(is_fitted());
  std::size_t leaves = 0;
  for (const Node& n : nodes_)
    if (n.feature == Node::kLeaf) ++leaves;
  return leaves;
}

void DecisionTree::restore(std::vector<Node> nodes,
                           std::vector<double> importances,
                           std::size_t n_features) {
  GP_CHECK(!nodes.empty());
  GP_CHECK(importances.size() == n_features);
  nodes_ = std::move(nodes);
  importance_raw_ = std::move(importances);
  n_features_ = n_features;
}

}  // namespace gpuperf::ml
