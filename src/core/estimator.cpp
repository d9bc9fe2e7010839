#include "core/estimator.hpp"

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "ml/model_io.hpp"

namespace gpuperf::core {

PerformanceEstimator::PerformanceEstimator(std::string regressor_id,
                                           std::uint64_t seed)
    : regressor_id_(std::move(regressor_id)),
      regressor_(ml::make_regressor(regressor_id_, seed)) {}

void PerformanceEstimator::train(const ml::Dataset& data) {
  GP_CHECK_MSG(data.feature_names() == FeatureExtractor::feature_names(),
               "dataset schema does not match the estimator's features");
  regressor_->fit(data);
}

bool PerformanceEstimator::is_trained() const {
  return regressor_->is_fitted();
}

double PerformanceEstimator::predict(
    std::span<const double> features) const {
  GP_CHECK_MSG(is_trained(), "predict before train");
  return regressor_->predict(features);
}

double PerformanceEstimator::predict(const std::string& zoo_model,
                                     const gpu::DeviceSpec& device) {
  GP_CHECK_MSG(is_trained(), "predict before train");
  const ModelFeatures& features = extractor_.for_zoo_model(zoo_model);
  last_dca_seconds_ = features.dca_seconds;
  Stopwatch watch;
  const double ipc =
      regressor_->predict(FeatureExtractor::feature_row(features, device));
  last_predict_seconds_ = watch.elapsed_seconds();
  return ipc;
}

double PerformanceEstimator::predict(const ModelFeatures& features,
                                     const gpu::DeviceSpec& device) const {
  GP_CHECK_MSG(is_trained(), "predict before train");
  return regressor_->predict(FeatureExtractor::feature_row(features, device));
}

ml::RegressionScore PerformanceEstimator::evaluate(
    const ml::Dataset& data) const {
  GP_CHECK_MSG(is_trained(), "evaluate before train");
  const std::vector<double> predicted = regressor_->predict_all(data);
  return ml::score_regression(data.targets(), predicted,
                              data.n_features());
}

const ml::Regressor& PerformanceEstimator::model() const {
  return *regressor_;
}

void PerformanceEstimator::save(const std::string& path) const {
  GP_CHECK_MSG(is_trained(), "save before train");
  ml::save_regressor(*regressor_, path);
}

PerformanceEstimator PerformanceEstimator::load(const std::string& path) {
  ml::LoadedRegressor loaded = ml::load_regressor(path);
  return adopt(std::move(loaded.id), std::move(loaded.model));
}

PerformanceEstimator PerformanceEstimator::adopt(
    std::string regressor_id, std::unique_ptr<ml::Regressor> model) {
  GP_CHECK(model != nullptr);
  GP_CHECK_MSG(model->is_fitted(), "adopt of an unfitted model");
  GP_CHECK_MSG(
      model->n_features() == FeatureExtractor::feature_names().size(),
      "model '" << regressor_id
                << "' does not match the estimator feature schema ("
                << model->n_features() << " features vs "
                << FeatureExtractor::feature_names().size() << ")");
  PerformanceEstimator est(std::move(regressor_id));
  est.regressor_ = std::move(model);
  return est;
}

std::vector<double> PerformanceEstimator::feature_importances() const {
  GP_CHECK_MSG(is_trained(), "importances before train");
  return regressor_->feature_importances();
}

}  // namespace gpuperf::core
