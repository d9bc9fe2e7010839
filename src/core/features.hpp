// Feature extraction for the predictive model: the paper's observation
// vector d = (y, p, c1..cm, t) where p is the dynamically counted PTX
// instruction total (dynamic code analysis), t the statically counted
// trainable parameters, and c1..cm the GPU architectural features.  A
// prediction reads them as one fixed-size FeatureRow on its own stack;
// datasets and benches take the same row as a std::vector.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cnn/model.hpp"
#include "cnn/static_analyzer.hpp"
#include "common/deadline.hpp"
#include "gpu/device_spec.hpp"
#include "ptx/counter.hpp"

namespace gpuperf::core {

struct ModelFeatures {
  std::string model_name;
  std::int64_t executed_instructions = 0;  // p — dynamic code analysis
  std::int64_t trainable_params = 0;       // t — static analyzer
  // Diagnostics (not part of the paper's predictor set, but exposed for
  // the extension experiments on FLOPs/MACs).
  std::int64_t macs = 0;
  std::int64_t neurons = 0;
  std::int64_t weighted_layers = 0;
  double dca_seconds = 0.0;  // wall time of the dynamic code analysis
};

/// The features every verb falls back to when dynamic code analysis
/// times out, crashes or fails: the static analyzer's counts, with
/// executed instructions imputed as 16 per trainable parameter.  A pure
/// function of the model, so a degraded answer never depends on which
/// verb or which session served it (docs/ROBUSTNESS.md "Graceful
/// degradation").
ModelFeatures static_only_features(const cnn::ModelReport& report);

/// One model's features together with the lowered model and the
/// instruction profile they were read from.
struct FeatureExtraction {
  ModelFeatures features;
  ptx::CompiledModel compiled;
  ptx::ModelInstructionProfile profile;
};

class FeatureExtractor {
 public:
  /// Static analysis + PTX generation + sliced symbolic execution for
  /// one model, on one shape pass.  `deadline` bounds the dynamic code
  /// analysis; expiry throws AnalysisTimeout (the static half is never
  /// the bottleneck).  The feature computation of every verb and of
  /// training (DatasetBuilder, which also profiles `compiled`).
  FeatureExtraction extract(const cnn::Model& model,
                            const Deadline& deadline = {}) const;

  /// extract()'s features alone.
  ModelFeatures compute(const cnn::Model& model,
                        const Deadline& deadline = {}) const {
    return extract(model, deadline).features;
  }

  /// Cached compute() for zoo models, keyed by Table I name.
  const ModelFeatures& for_zoo_model(const std::string& name);

  /// Width of the regression feature row: executed instructions and
  /// trainable parameters, then the device's features.
  static constexpr std::size_t kFeatureCount =
      2 + gpu::DeviceSpec::kFeatureCount;
  using FeatureRow = std::array<double, kFeatureCount>;

  /// The regression feature row (CNN features + device features),
  /// aligned with feature_names().  What every prediction reads.
  static FeatureRow feature_row(const ModelFeatures& model,
                                const gpu::DeviceSpec& device);
  /// feature_row() as a vector, in the same order (datasets, benches).
  static std::vector<double> feature_vector(const ModelFeatures& model,
                                            const gpu::DeviceSpec& device);
  static const std::vector<std::string>& feature_names();

  /// Extended predictor set (the paper's future work): the base
  /// features plus MACs, neurons and weighted-layer count.
  static std::vector<double> extended_feature_vector(
      const ModelFeatures& model, const gpu::DeviceSpec& device);
  static const std::vector<std::string>& extended_feature_names();

 private:
  ptx::CodeGenerator codegen_;
  // Binds to the process-shared kernel-library analysis (parse + slice
  // once per process); count() memoizes per-launch results, so repeat
  // extractions cost codegen only.
  ptx::InstructionCounter counter_;
  std::map<std::string, ModelFeatures> cache_;
};

}  // namespace gpuperf::core
