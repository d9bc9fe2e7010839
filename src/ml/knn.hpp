// K-Nearest Neighbors regression with internally standardized features
// and inverse-distance weighting (uniform weighting available).  Brute
// force search: the paper's datasets are tens of rows, where an index
// structure would only add constants.
#pragma once

#include "ml/regressor.hpp"

namespace gpuperf::ml {

class KnnRegressor final : public Regressor {
 public:
  enum class Weighting { kUniform, kInverseDistance };

  explicit KnnRegressor(std::size_t k = 3,
                        Weighting weighting = Weighting::kInverseDistance);

  std::string name() const override { return "K-Nearest Neighbors"; }
  void fit(const Dataset& data) override;
  bool is_fitted() const override { return fitted_; }
  std::size_t n_features() const override { return st_.mean.size(); }

  std::size_t k() const { return k_; }
  Weighting weighting() const { return weighting_; }
  const Dataset::Standardization& standardization() const { return st_; }
  const std::vector<std::vector<double>>& points() const { return points_; }
  const std::vector<double>& targets() const { return targets_; }

  /// Rebuild from serialized state (model_io): the embedded training
  /// set (already standardized) plus the standardization that produced
  /// it.
  void restore(Dataset::Standardization st,
               std::vector<std::vector<double>> points,
               std::vector<double> targets, std::size_t k,
               Weighting weighting);

 protected:
  double predict_row(std::span<const double> x) const override;

 private:
  std::size_t k_;
  Weighting weighting_;
  bool fitted_ = false;
  Dataset::Standardization st_;
  std::vector<std::vector<double>> points_;  // standardized
  std::vector<double> targets_;
};

}  // namespace gpuperf::ml
