#include "core/features.hpp"

#include <algorithm>

#include "cnn/static_analyzer.hpp"
#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"

namespace gpuperf::core {

namespace {

/// The static analyzer's half of a feature row.
ModelFeatures static_features(const cnn::ModelReport& report) {
  ModelFeatures out;
  out.model_name = report.model_name;
  out.trainable_params = report.trainable_params;
  out.macs = report.macs;
  out.neurons = report.neurons;
  out.weighted_layers = report.weighted_layers;
  return out;
}

}  // namespace

FeatureExtraction FeatureExtractor::extract(const cnn::Model& model,
                                            const Deadline& deadline) const {
  const cnn::StaticAnalyzer analyzer;
  const std::vector<cnn::TensorShape> shapes = analyzer.infer_shapes(model);
  FeatureExtraction out;
  out.features = static_features(analyzer.analyze(model, shapes));

  Stopwatch dca_watch;
  out.compiled = codegen_.compile(model, shapes);
  out.profile = counter_.count(out.compiled, deadline);
  out.features.executed_instructions = out.profile.total_instructions;
  // Wall time of codegen + counting.  Counting is memoized per launch
  // config, so a repeat model reports its true (near-zero) warm cost.
  out.features.dca_seconds = dca_watch.elapsed_seconds();
  return out;
}

ModelFeatures static_only_features(const cnn::ModelReport& report) {
  // The paper's Gini analysis puts executed-instructions importance at
  // only 0.014, so a params-proportional guess still gives a useful
  // prediction.
  constexpr std::int64_t kInstructionsPerParam = 16;
  ModelFeatures out = static_features(report);
  out.executed_instructions = report.trainable_params * kInstructionsPerParam;
  return out;
}

const ModelFeatures& FeatureExtractor::for_zoo_model(
    const std::string& name) {
  const auto it = cache_.find(name);
  if (it != cache_.end()) return it->second;
  GP_CHECK_MSG(cnn::zoo::has_model(name), "unknown zoo model '" << name
                                                                << "'");
  return cache_.emplace(name, compute(cnn::zoo::build(name))).first->second;
}

FeatureExtractor::FeatureRow FeatureExtractor::feature_row(
    const ModelFeatures& model, const gpu::DeviceSpec& device) {
  FeatureRow row{};
  row[0] = static_cast<double>(model.executed_instructions);
  row[1] = static_cast<double>(model.trainable_params);
  const auto device_features = device.features();
  std::copy(device_features.begin(), device_features.end(), row.begin() + 2);
  return row;
}

std::vector<double> FeatureExtractor::feature_vector(
    const ModelFeatures& model, const gpu::DeviceSpec& device) {
  const FeatureRow row = feature_row(model, device);
  return {row.begin(), row.end()};
}

const std::vector<std::string>& FeatureExtractor::feature_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {"executed_instructions",
                                  "trainable_params"};
    for (const auto& f : gpu::DeviceSpec::feature_names()) n.push_back(f);
    GP_CHECK(n.size() == kFeatureCount);
    return n;
  }();
  return names;
}

std::vector<double> FeatureExtractor::extended_feature_vector(
    const ModelFeatures& model, const gpu::DeviceSpec& device) {
  std::vector<double> out = feature_vector(model, device);
  out.push_back(static_cast<double>(model.macs));
  out.push_back(static_cast<double>(model.neurons));
  out.push_back(static_cast<double>(model.weighted_layers));
  GP_CHECK(out.size() == extended_feature_names().size());
  return out;
}

const std::vector<std::string>& FeatureExtractor::extended_feature_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = feature_names();
    n.push_back("macs");
    n.push_back("neurons");
    n.push_back("weighted_layers");
    return n;
  }();
  return names;
}

}  // namespace gpuperf::core
