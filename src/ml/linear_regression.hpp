// Ordinary least squares with intercept, fit by Householder QR.  The
// paper includes it as the linear-dependence baseline; on this problem
// it is expected to score worst (negative R²), and our reproduction
// should preserve that ordering.
#pragma once

#include "ml/matrix.hpp"
#include "ml/regressor.hpp"

namespace gpuperf::ml {

class LinearRegression final : public Regressor {
 public:
  std::string name() const override { return "Linear Regression"; }
  void fit(const Dataset& data) override;
  bool is_fitted() const override { return fitted_; }
  std::size_t n_features() const override { return coef_.size(); }

  /// Weights (one per feature) and the intercept term.
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

  /// Rebuild from serialized state (model_io).
  void restore(std::vector<double> coef, double intercept);

 protected:
  double predict_row(std::span<const double> x) const override;

 private:
  bool fitted_ = false;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  // Features are standardized internally before the solve for numeric
  // conditioning; coef_/intercept_ are reported back in raw units.
  std::size_t n_features_ = 0;
};

}  // namespace gpuperf::ml
