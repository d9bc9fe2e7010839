// The predictive model (Fig. 3, phase 2): trains one of the five
// regression algorithms on the generated dataset and predicts the IPC
// of new CNNs on arbitrary devices without executing them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/features.hpp"
#include "ml/metrics.hpp"
#include "ml/regressor.hpp"

namespace gpuperf::core {

class PerformanceEstimator {
 public:
  /// regressor_id: "linear" | "knn" | "dt" | "rf" | "xgb" (the paper
  /// selects "dt" after the Table II comparison).
  explicit PerformanceEstimator(std::string regressor_id = "dt",
                                std::uint64_t seed = 42);

  void train(const ml::Dataset& data);
  bool is_trained() const;

  /// Predict from an explicit feature row (schema of
  /// FeatureExtractor::feature_names()).
  double predict(std::span<const double> features) const;

  /// Predict for a zoo CNN on a device — runs (cached) static analysis
  /// + dynamic code analysis, then the model; no hardware involved.
  /// Not thread-safe (mutates the feature cache and timing fields);
  /// concurrent callers should use the const overload below.
  double predict(const std::string& zoo_model,
                 const gpu::DeviceSpec& device);

  /// Thread-safe predict from precomputed CNN features: touches no
  /// mutable estimator state, so any number of threads may call it on
  /// a trained, no-longer-mutated estimator.  This is the serving hot
  /// path (src/serve), with features supplied by the DCA cache; the
  /// feature row lives on the stack, so only a K-NN model allocates.
  double predict(const ModelFeatures& features,
                 const gpu::DeviceSpec& device) const;

  /// Per-row predictions + the Table II metric triple on a dataset.
  ml::RegressionScore evaluate(const ml::Dataset& data) const;

  const ml::Regressor& model() const;
  const std::string& regressor_id() const { return regressor_id_; }

  /// Feature importances of the trained model (Table III), aligned
  /// with FeatureExtractor::feature_names(); empty if the algorithm
  /// has none.
  std::vector<double> feature_importances() const;

  /// Seconds spent inside the last predict(zoo_model, device) call,
  /// split into dynamic code analysis and model inference (the t_dca
  /// and t_pm of the paper's DSE timing model).
  double last_dca_seconds() const { return last_dca_seconds_; }
  double last_predict_seconds() const { return last_predict_seconds_; }

  /// Persist / restore a trained estimator.  Every paper regressor
  /// serializes (ml/model_io); load() detects the algorithm from the
  /// file header and validates the feature width against the
  /// extractor's schema.
  void save(const std::string& path) const;
  static PerformanceEstimator load(const std::string& path);

  /// Wrap an already-restored regressor (the registry's load path).
  /// GP_CHECK-fails unless the model is fitted with this estimator's
  /// feature schema width.
  static PerformanceEstimator adopt(std::string regressor_id,
                                    std::unique_ptr<ml::Regressor> model);

  FeatureExtractor& extractor() { return extractor_; }
  /// Const access for shared-estimator callers (DSE sweeps): compute()
  /// is const, so concurrent feature extraction through this accessor
  /// touches no estimator state.
  const FeatureExtractor& extractor() const { return extractor_; }

 private:
  std::string regressor_id_;
  std::unique_ptr<ml::Regressor> regressor_;
  FeatureExtractor extractor_;
  double last_dca_seconds_ = 0.0;
  double last_predict_seconds_ = 0.0;
};

}  // namespace gpuperf::core
