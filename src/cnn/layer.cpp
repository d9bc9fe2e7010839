#include "cnn/layer.hpp"

#include "common/check.hpp"

namespace gpuperf::cnn {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput:
      return "Input";
    case LayerKind::kConv2D:
      return "Conv2D";
    case LayerKind::kDepthwiseConv2D:
      return "DepthwiseConv2D";
    case LayerKind::kDense:
      return "Dense";
    case LayerKind::kMaxPool:
      return "MaxPool";
    case LayerKind::kAvgPool:
      return "AvgPool";
    case LayerKind::kGlobalAvgPool:
      return "GlobalAvgPool";
    case LayerKind::kActivation:
      return "Activation";
    case LayerKind::kBatchNorm:
      return "BatchNorm";
    case LayerKind::kAdd:
      return "Add";
    case LayerKind::kMultiply:
      return "Multiply";
    case LayerKind::kConcat:
      return "Concat";
    case LayerKind::kFlatten:
      return "Flatten";
    case LayerKind::kZeroPad:
      return "ZeroPad";
    case LayerKind::kDropout:
      return "Dropout";
  }
  return "?";
}

const char* activation_name(ActivationKind kind) {
  switch (kind) {
    case ActivationKind::kLinear:
      return "linear";
    case ActivationKind::kReLU:
      return "relu";
    case ActivationKind::kReLU6:
      return "relu6";
    case ActivationKind::kSigmoid:
      return "sigmoid";
    case ActivationKind::kSwish:
      return "swish";
    case ActivationKind::kSoftmax:
      return "softmax";
    case ActivationKind::kTanh:
      return "tanh";
  }
  return "?";
}

Layer Layer::input(std::int64_t h, std::int64_t w, std::int64_t c) {
  Layer l;
  l.kind = LayerKind::kInput;
  l.input_shape = TensorShape::hwc(h, w, c);
  return l;
}

Layer Layer::conv2d(std::int64_t filters, int kernel, int stride,
                    Padding padding, bool use_bias, ActivationKind act,
                    int groups) {
  GP_CHECK(filters > 0 && kernel > 0 && stride > 0 && groups > 0);
  GP_CHECK_MSG(filters % groups == 0, "filters must divide by groups");
  Layer l;
  l.kind = LayerKind::kConv2D;
  l.filters = filters;
  l.kernel_h = l.kernel_w = kernel;
  l.stride_h = l.stride_w = stride;
  l.padding = padding;
  l.use_bias = use_bias;
  l.act = act;
  l.groups = groups;
  return l;
}

Layer Layer::conv2d_rect(std::int64_t filters, int kernel_h, int kernel_w,
                         int stride_h, int stride_w, Padding padding,
                         bool use_bias) {
  GP_CHECK(filters > 0 && kernel_h > 0 && kernel_w > 0 && stride_h > 0 &&
           stride_w > 0);
  Layer l;
  l.kind = LayerKind::kConv2D;
  l.filters = filters;
  l.kernel_h = kernel_h;
  l.kernel_w = kernel_w;
  l.stride_h = stride_h;
  l.stride_w = stride_w;
  l.padding = padding;
  l.use_bias = use_bias;
  return l;
}

Layer Layer::depthwise_conv2d(int kernel, int stride, Padding padding,
                              bool use_bias, int depth_multiplier) {
  GP_CHECK(kernel > 0 && stride > 0 && depth_multiplier > 0);
  Layer l;
  l.kind = LayerKind::kDepthwiseConv2D;
  l.kernel_h = l.kernel_w = kernel;
  l.stride_h = l.stride_w = stride;
  l.padding = padding;
  l.use_bias = use_bias;
  l.depth_multiplier = depth_multiplier;
  return l;
}

Layer Layer::dense(std::int64_t units, bool use_bias, ActivationKind act) {
  GP_CHECK(units > 0);
  Layer l;
  l.kind = LayerKind::kDense;
  l.filters = units;
  l.use_bias = use_bias;
  l.act = act;
  return l;
}

namespace {

Layer make_pool(LayerKind kind, int pool, int stride, Padding padding) {
  GP_CHECK(pool > 0 && stride >= 0);
  Layer l;
  l.kind = kind;
  l.kernel_h = l.kernel_w = pool;
  const int s = stride == 0 ? pool : stride;  // Keras default: stride=pool
  l.stride_h = l.stride_w = s;
  l.padding = padding;
  return l;
}

}  // namespace

Layer Layer::max_pool(int pool, int stride, Padding padding) {
  return make_pool(LayerKind::kMaxPool, pool, stride, padding);
}

Layer Layer::avg_pool(int pool, int stride, Padding padding) {
  return make_pool(LayerKind::kAvgPool, pool, stride, padding);
}

Layer Layer::global_avg_pool() {
  Layer l;
  l.kind = LayerKind::kGlobalAvgPool;
  return l;
}

Layer Layer::activation(ActivationKind act) {
  Layer l;
  l.kind = LayerKind::kActivation;
  l.act = act;
  return l;
}

Layer Layer::batch_norm() {
  Layer l;
  l.kind = LayerKind::kBatchNorm;
  return l;
}

Layer Layer::add() {
  Layer l;
  l.kind = LayerKind::kAdd;
  return l;
}

Layer Layer::multiply() {
  Layer l;
  l.kind = LayerKind::kMultiply;
  return l;
}

Layer Layer::concat() {
  Layer l;
  l.kind = LayerKind::kConcat;
  return l;
}

Layer Layer::flatten() {
  Layer l;
  l.kind = LayerKind::kFlatten;
  return l;
}

Layer Layer::zero_pad(int top, int bottom, int left, int right) {
  GP_CHECK(top >= 0 && bottom >= 0 && left >= 0 && right >= 0);
  Layer l;
  l.kind = LayerKind::kZeroPad;
  l.pad_top = top;
  l.pad_bottom = bottom;
  l.pad_left = left;
  l.pad_right = right;
  return l;
}

Layer Layer::dropout(double rate) {
  GP_CHECK(rate >= 0.0 && rate < 1.0);
  Layer l;
  l.kind = LayerKind::kDropout;
  l.dropout_rate = rate;
  return l;
}

bool valid_input_arity(LayerKind kind, std::size_t n_inputs) {
  switch (kind) {
    case LayerKind::kInput:
      return n_inputs == 0;
    case LayerKind::kAdd:
    case LayerKind::kMultiply:
    case LayerKind::kConcat:
      return n_inputs >= 2;
    default:
      return n_inputs == 1;
  }
}

namespace {

const TensorShape& sole_input(const std::vector<TensorShape>& inputs) {
  GP_CHECK(inputs.size() == 1);
  return inputs.front();
}

}  // namespace

TensorShape infer_output_shape(const Layer& layer,
                               const std::vector<TensorShape>& inputs) {
  GP_CHECK_MSG(valid_input_arity(layer.kind, inputs.size()),
               layer_kind_name(layer.kind) << " with " << inputs.size()
                                           << " inputs");
  switch (layer.kind) {
    case LayerKind::kInput:
      return layer.input_shape;

    case LayerKind::kConv2D: {
      const TensorShape& in = sole_input(inputs);
      GP_CHECK_MSG(in.rank == 3, "Conv2D needs a rank-3 input");
      GP_CHECK_MSG(in.c % layer.groups == 0,
                   "input channels " << in.c << " not divisible by groups "
                                     << layer.groups);
      return TensorShape::hwc(
          conv_out_dim(in.h, layer.kernel_h, layer.stride_h, layer.padding),
          conv_out_dim(in.w, layer.kernel_w, layer.stride_w, layer.padding),
          layer.filters);
    }

    case LayerKind::kDepthwiseConv2D: {
      const TensorShape& in = sole_input(inputs);
      GP_CHECK_MSG(in.rank == 3, "DepthwiseConv2D needs a rank-3 input");
      return TensorShape::hwc(
          conv_out_dim(in.h, layer.kernel_h, layer.stride_h, layer.padding),
          conv_out_dim(in.w, layer.kernel_w, layer.stride_w, layer.padding),
          in.c * layer.depth_multiplier);
    }

    case LayerKind::kDense: {
      const TensorShape& in = sole_input(inputs);
      GP_CHECK_MSG(in.rank == 1,
                   "Dense needs a flat input; add Flatten/GlobalAvgPool");
      return TensorShape::flat(layer.filters);
    }

    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: {
      const TensorShape& in = sole_input(inputs);
      GP_CHECK_MSG(in.rank == 3, "pooling needs a rank-3 input");
      return TensorShape::hwc(
          conv_out_dim(in.h, layer.kernel_h, layer.stride_h, layer.padding),
          conv_out_dim(in.w, layer.kernel_w, layer.stride_w, layer.padding),
          in.c);
    }

    case LayerKind::kGlobalAvgPool: {
      const TensorShape& in = sole_input(inputs);
      GP_CHECK_MSG(in.rank == 3, "global pooling needs a rank-3 input");
      return TensorShape::flat(in.c);
    }

    case LayerKind::kActivation:
    case LayerKind::kBatchNorm:
    case LayerKind::kDropout:
      return sole_input(inputs);

    case LayerKind::kAdd: {
      const TensorShape& first = inputs.front();
      for (const auto& s : inputs)
        GP_CHECK_MSG(s == first, "Add over mismatched shapes "
                                     << first.to_string() << " vs "
                                     << s.to_string());
      return first;
    }

    case LayerKind::kMultiply: {
      // Elementwise, with channel broadcast: a rank-1 (C) operand scales
      // a rank-3 (H, W, C) map — the squeeze-and-excitation idiom.
      TensorShape out = inputs.front();
      for (const auto& s : inputs) {
        if (s == out) continue;
        const bool broadcast =
            (out.rank == 3 && s.rank == 1 && s.h == out.c) ||
            (out.rank == 1 && s.rank == 3 && out.h == s.c);
        GP_CHECK_MSG(broadcast, "Multiply over incompatible shapes "
                                    << out.to_string() << " vs "
                                    << s.to_string());
        if (out.rank == 1) out = s;  // rank-3 operand wins
      }
      return out;
    }

    case LayerKind::kConcat: {
      const TensorShape& first = inputs.front();
      GP_CHECK(first.rank == 3);
      std::int64_t channels = 0;
      for (const auto& s : inputs) {
        GP_CHECK_MSG(s.rank == 3 && s.h == first.h && s.w == first.w,
                     "concat over mismatched spatial dims");
        channels += s.c;
      }
      return TensorShape::hwc(first.h, first.w, channels);
    }

    case LayerKind::kFlatten: {
      const TensorShape& in = sole_input(inputs);
      return TensorShape::flat(in.elements());
    }

    case LayerKind::kZeroPad: {
      const TensorShape& in = sole_input(inputs);
      GP_CHECK(in.rank == 3);
      return TensorShape::hwc(in.h + layer.pad_top + layer.pad_bottom,
                              in.w + layer.pad_left + layer.pad_right, in.c);
    }
  }
  GP_CHECK_MSG(false, "unhandled layer kind");
}

ParamCount count_params(const Layer& layer,
                        const std::vector<TensorShape>& inputs) {
  ParamCount out;
  switch (layer.kind) {
    case LayerKind::kConv2D: {
      const TensorShape& in = sole_input(inputs);
      out.trainable = static_cast<std::int64_t>(layer.kernel_h) *
                      layer.kernel_w * (in.c / layer.groups) * layer.filters;
      if (layer.use_bias) out.trainable += layer.filters;
      break;
    }
    case LayerKind::kDepthwiseConv2D: {
      const TensorShape& in = sole_input(inputs);
      const std::int64_t ch_out = in.c * layer.depth_multiplier;
      out.trainable = static_cast<std::int64_t>(layer.kernel_h) *
                      layer.kernel_w * ch_out;
      if (layer.use_bias) out.trainable += ch_out;
      break;
    }
    case LayerKind::kDense: {
      const TensorShape& in = sole_input(inputs);
      out.trainable = in.h * layer.filters;
      if (layer.use_bias) out.trainable += layer.filters;
      break;
    }
    case LayerKind::kBatchNorm: {
      const TensorShape& in = sole_input(inputs);
      const std::int64_t c = in.rank == 3 ? in.c : in.h;
      out.trainable = 2 * c;      // gamma, beta
      out.non_trainable = 2 * c;  // moving mean, moving variance
      break;
    }
    default:
      break;  // no parameters
  }
  return out;
}

std::int64_t count_macs(const Layer& layer,
                        const std::vector<TensorShape>& inputs,
                        const TensorShape& output) {
  switch (layer.kind) {
    case LayerKind::kConv2D:
      return output.h * output.w * output.c * layer.kernel_h *
             layer.kernel_w * (sole_input(inputs).c / layer.groups);
    case LayerKind::kDepthwiseConv2D:
      return output.h * output.w * output.c * layer.kernel_h *
             layer.kernel_w;
    case LayerKind::kDense: {
      const TensorShape& in = sole_input(inputs);
      return in.h * layer.filters;
    }
    case LayerKind::kAvgPool:
    case LayerKind::kMaxPool:
      // Window reductions: one op per window element.
      return output.elements() * layer.kernel_h * layer.kernel_w;
    case LayerKind::kGlobalAvgPool:
      return sole_input(inputs).elements();
    case LayerKind::kBatchNorm:
    case LayerKind::kActivation:
      return sole_input(inputs).elements();
    case LayerKind::kAdd:
    case LayerKind::kMultiply:
      return output.elements() *
             static_cast<std::int64_t>(inputs.size() - 1);
    default:
      return 0;
  }
}

bool is_weighted_layer(LayerKind kind) {
  return kind == LayerKind::kConv2D || kind == LayerKind::kDepthwiseConv2D ||
         kind == LayerKind::kDense;
}

}  // namespace gpuperf::cnn
