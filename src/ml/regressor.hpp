// Common interface for the five regression algorithms the paper
// compares (Table II).  Models fit on a Dataset and predict from a raw
// feature row, any contiguous run of doubles (a Dataset row, a
// std::array on the caller's stack, a braced list); standardization,
// where an algorithm needs it (K-NN), is owned by the model itself so
// callers never pre-scale.  Only K-NN allocates while predicting.
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace gpuperf::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Human-readable algorithm name ("Decision Tree").
  virtual std::string name() const = 0;

  /// Train on the dataset; replaces any previous fit.
  virtual void fit(const Dataset& data) = 0;

  virtual bool is_fitted() const = 0;

  /// Predict a single observation; GP_CHECK-fails if not fitted or the
  /// feature width differs from the training schema.
  double predict(std::span<const double> x) const { return predict_row(x); }
  double predict(std::initializer_list<double> x) const {
    return predict_row({x.begin(), x.size()});
  }

  /// Predict every row of a dataset.
  std::vector<double> predict_all(const Dataset& data) const;

  /// Width of the training feature schema; 0 before fit.  Lets generic
  /// consumers (model_io, the registry) validate a deserialized model
  /// against an expected schema without knowing the concrete type.
  virtual std::size_t n_features() const = 0;

  /// Per-feature importances summing to 1.  Empty for algorithms
  /// without a natural importance notion (K-NN); tree models report
  /// normalized impurity decrease (the paper's Table III).
  virtual std::vector<double> feature_importances() const { return {}; }

 protected:
  /// predict()'s body, one per algorithm.
  virtual double predict_row(std::span<const double> x) const = 0;
};

/// Factory covering the paper's five algorithms, keyed by a short id:
/// "linear", "knn", "dt", "rf", "xgb".  Seed feeds the stochastic
/// models (forest bootstraps, boosting row subsampling).
std::unique_ptr<Regressor> make_regressor(const std::string& id,
                                          std::uint64_t seed = 42);

/// The ids accepted by make_regressor, in the paper's Table II order.
const std::vector<std::string>& regressor_ids();

}  // namespace gpuperf::ml
