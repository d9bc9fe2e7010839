#include "ml/linear_regression.hpp"

#include "common/check.hpp"

namespace gpuperf::ml {

void LinearRegression::fit(const Dataset& data) {
  GP_CHECK_MSG(data.size() >= data.n_features() + 1,
               "OLS needs at least n_features + 1 rows");
  n_features_ = data.n_features();

  // Standardize the design matrix for conditioning; the trainable-param
  // and instruction-count columns span ~6 orders of magnitude.
  const auto st = data.standardization();
  const std::size_t n = data.size();
  const std::size_t d = n_features_;

  Matrix a(n, d + 1);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto z = st.apply(data.row(i));
    for (std::size_t j = 0; j < d; ++j) a(i, j) = z[j];
    a(i, d) = 1.0;  // intercept column
    b[i] = data.target(i);
  }

  const std::vector<double> w = solve_least_squares(a, b);

  // Un-standardize: y = sum_j wj (xj - mu_j)/sd_j + w_d
  //               = sum_j (wj/sd_j) xj + (w_d - sum_j wj mu_j / sd_j).
  coef_.assign(d, 0.0);
  intercept_ = w[d];
  for (std::size_t j = 0; j < d; ++j) {
    coef_[j] = w[j] / st.stddev[j];
    intercept_ -= w[j] * st.mean[j] / st.stddev[j];
  }
  fitted_ = true;
}

void LinearRegression::restore(std::vector<double> coef, double intercept) {
  GP_CHECK(!coef.empty());
  coef_ = std::move(coef);
  intercept_ = intercept;
  n_features_ = coef_.size();
  fitted_ = true;
}

double LinearRegression::predict_row(std::span<const double> x) const {
  GP_CHECK_MSG(fitted_, "predict before fit");
  GP_CHECK(x.size() == n_features_);
  double y = intercept_;
  for (std::size_t j = 0; j < x.size(); ++j) y += coef_[j] * x[j];
  return y;
}

}  // namespace gpuperf::ml
