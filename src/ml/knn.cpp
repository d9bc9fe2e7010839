#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace gpuperf::ml {

KnnRegressor::KnnRegressor(std::size_t k, Weighting weighting)
    : k_(k), weighting_(weighting) {
  GP_CHECK(k_ >= 1);
}

void KnnRegressor::fit(const Dataset& data) {
  GP_CHECK_MSG(data.size() >= 1, "K-NN needs at least one row");
  st_ = data.standardization();
  points_.clear();
  targets_.clear();
  points_.reserve(data.size());
  targets_.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    points_.push_back(st_.apply(data.row(i)));
    targets_.push_back(data.target(i));
  }
  fitted_ = true;
}

void KnnRegressor::restore(Dataset::Standardization st,
                           std::vector<std::vector<double>> points,
                           std::vector<double> targets, std::size_t k,
                           Weighting weighting) {
  GP_CHECK(k >= 1);
  GP_CHECK_MSG(!points.empty() && points.size() == targets.size(),
               "K-NN restore needs a consistent training set");
  GP_CHECK(!st.mean.empty() && st.mean.size() == st.stddev.size());
  for (const auto& p : points) GP_CHECK(p.size() == st.mean.size());
  st_ = std::move(st);
  points_ = std::move(points);
  targets_ = std::move(targets);
  k_ = k;
  weighting_ = weighting;
  fitted_ = true;
}

double KnnRegressor::predict_row(std::span<const double> x) const {
  GP_CHECK_MSG(fitted_, "predict before fit");
  GP_CHECK(x.size() == st_.mean.size());
  const std::vector<double> z = st_.apply({x.begin(), x.end()});

  // Distances to every training point, then partial sort for the k best.
  std::vector<std::pair<double, std::size_t>> dist(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < z.size(); ++j) {
      const double d = z[j] - points_[i][j];
      d2 += d * d;
    }
    dist[i] = {d2, i};
  }
  const std::size_t k = std::min(k_, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k),
                    dist.end());

  if (weighting_ == Weighting::kUniform) {
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) sum += targets_[dist[i].second];
    return sum / static_cast<double>(k);
  }

  // Inverse-distance weighting; an exact hit short-circuits to its target.
  double wsum = 0.0, ysum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double d = std::sqrt(dist[i].first);
    if (d < 1e-12) return targets_[dist[i].second];
    const double w = 1.0 / d;
    wsum += w;
    ysum += w * targets_[dist[i].second];
  }
  return ysum / wsum;
}

}  // namespace gpuperf::ml
