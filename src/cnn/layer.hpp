// Layer descriptions and their shape / parameter / MAC algebra.
//
// A Layer is a plain description (no weights are stored — the library
// analyzes architectures, it does not run them).  Parameter counting
// follows the Keras conventions the paper's Table I numbers come from:
// conv k_h*k_w*(C_in/groups)*F + F bias, dense n*m + m, batch-norm 2C
// trainable + 2C frozen statistics, pool/activation/merge 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cnn/shape.hpp"

namespace gpuperf::cnn {

enum class LayerKind {
  kInput,
  kConv2D,
  kDepthwiseConv2D,
  kDense,
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kActivation,
  kBatchNorm,
  kAdd,
  kMultiply,
  kConcat,
  kFlatten,
  kZeroPad,
  kDropout,
};

enum class ActivationKind {
  kLinear,
  kReLU,
  kReLU6,
  kSigmoid,
  kSwish,
  kSoftmax,
  kTanh,
};

const char* layer_kind_name(LayerKind kind);
const char* activation_name(ActivationKind kind);

/// One layer description.  Construct through the factory functions —
/// they validate the fields that matter for each kind.
struct Layer {
  LayerKind kind = LayerKind::kInput;
  std::string name;

  // Input.
  TensorShape input_shape;

  // Conv / depthwise-conv / pool windows.
  int kernel_h = 0, kernel_w = 0;
  int stride_h = 1, stride_w = 1;
  Padding padding = Padding::kSame;

  // Conv2D: output channels; Dense: units.
  std::int64_t filters = 0;
  int groups = 1;            // grouped convolution (AlexNet, ResNeXt)
  int depth_multiplier = 1;  // depthwise conv
  bool use_bias = true;

  ActivationKind act = ActivationKind::kLinear;  // fused epilogue

  // ZeroPad amounts.
  int pad_top = 0, pad_bottom = 0, pad_left = 0, pad_right = 0;

  double dropout_rate = 0.0;

  // ---- factories ----
  static Layer input(std::int64_t h, std::int64_t w, std::int64_t c);
  static Layer conv2d(std::int64_t filters, int kernel, int stride = 1,
                      Padding padding = Padding::kSame, bool use_bias = true,
                      ActivationKind act = ActivationKind::kLinear,
                      int groups = 1);
  static Layer conv2d_rect(std::int64_t filters, int kernel_h, int kernel_w,
                           int stride_h = 1, int stride_w = 1,
                           Padding padding = Padding::kSame,
                           bool use_bias = true);
  static Layer depthwise_conv2d(int kernel, int stride = 1,
                                Padding padding = Padding::kSame,
                                bool use_bias = true,
                                int depth_multiplier = 1);
  static Layer dense(std::int64_t units, bool use_bias = true,
                     ActivationKind act = ActivationKind::kLinear);
  static Layer max_pool(int pool, int stride = 0,
                        Padding padding = Padding::kValid);
  static Layer avg_pool(int pool, int stride = 0,
                        Padding padding = Padding::kValid);
  static Layer global_avg_pool();
  static Layer activation(ActivationKind act);
  static Layer batch_norm();
  static Layer add();
  static Layer multiply();
  static Layer concat();
  static Layer flatten();
  static Layer zero_pad(int top, int bottom, int left, int right);
  static Layer dropout(double rate);
};

/// Parameter counts for a layer given its input shapes.
struct ParamCount {
  std::int64_t trainable = 0;
  std::int64_t non_trainable = 0;
  std::int64_t total() const { return trainable + non_trainable; }
};

/// Number of inputs a layer kind accepts: merge layers take >= 2,
/// kInput takes 0, everything else exactly 1.
bool valid_input_arity(LayerKind kind, std::size_t n_inputs);

/// Infer the output shape; GP_CHECK-fails on incompatible inputs (e.g.
/// Add over mismatched shapes, Dense on a rank-3 tensor).
TensorShape infer_output_shape(const Layer& layer,
                               const std::vector<TensorShape>& inputs);

/// Trainable / non-trainable parameter counts.
ParamCount count_params(const Layer& layer,
                        const std::vector<TensorShape>& inputs);

/// Multiply-accumulate operations for one inference pass, given the
/// layer's inputs and its output shape as infer_output_shape() gives it.
std::int64_t count_macs(const Layer& layer,
                        const std::vector<TensorShape>& inputs,
                        const TensorShape& output);

/// True for layers the paper counts toward a model's "Layers" column
/// (weighted layers: conv, depthwise conv, dense).
bool is_weighted_layer(LayerKind kind);

}  // namespace gpuperf::cnn
