// The paper's Static Analyzer module (Fig. 3, phase 1): walks a model's
// DAG, infers every layer's output shape, and totals trainable
// parameters, neurons (activations), MACs and FLOPs.  These are the
// CNN-side predictors of the training dataset.
//
// infer_shapes() is the one shape pass of a feature computation: its
// result feeds analyze() here and CodeGenerator::compile() in ptx/, so
// a cold computation infers each node's shape once.  The one-argument
// analyze() runs the pass itself.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnn/model.hpp"

namespace gpuperf::cnn {

struct LayerReport {
  std::string name;
  LayerKind kind = LayerKind::kInput;
  TensorShape output_shape;
  std::int64_t trainable_params = 0;
  std::int64_t non_trainable_params = 0;
  std::int64_t neurons = 0;  // output elements
  std::int64_t macs = 0;
};

struct ModelReport {
  std::string model_name;
  TensorShape input_shape;
  std::int64_t trainable_params = 0;
  std::int64_t non_trainable_params = 0;
  std::int64_t total_params = 0;
  /// Sum of output activations over all non-input layers — the
  /// "Neurons" column of the paper's Table I.
  std::int64_t neurons = 0;
  std::int64_t macs = 0;
  std::int64_t flops = 0;  // 2 * macs
  /// Count of weighted layers (conv / depthwise conv / dense) — the
  /// "Layers" column of Table I.
  std::int64_t weighted_layers = 0;
  std::int64_t node_count = 0;
  std::vector<LayerReport> layers;
};

class StaticAnalyzer {
 public:
  /// Validates the model and infers the output shape of every node
  /// (index = NodeId); GP_CHECK-fails on shape-inconsistent models.
  std::vector<TensorShape> infer_shapes(const Model& model) const;

  /// Full analysis over `shapes`, which must be infer_shapes(model).
  ModelReport analyze(const Model& model,
                      std::span<const TensorShape> shapes) const;

  /// infer_shapes(), then the analysis above.
  ModelReport analyze(const Model& model) const {
    return analyze(model, infer_shapes(model));
  }
};

/// Render a ModelReport summary (per-layer table plus totals).
std::string to_string(const ModelReport& report, bool per_layer = false);

}  // namespace gpuperf::cnn
