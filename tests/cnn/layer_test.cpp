#include "cnn/layer.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace gpuperf::cnn {
namespace {

std::vector<TensorShape> in(TensorShape s) { return {s}; }

TEST(Layer, Conv2DShapeAndParams) {
  const Layer conv = Layer::conv2d(64, 3, 1, Padding::kSame, true);
  const auto inputs = in(TensorShape::hwc(224, 224, 3));
  EXPECT_EQ(infer_output_shape(conv, inputs), TensorShape::hwc(224, 224, 64));
  // 3*3*3*64 + 64 bias.
  EXPECT_EQ(count_params(conv, inputs).trainable, 1792);
  EXPECT_EQ(count_params(conv, inputs).non_trainable, 0);
  // MACs = 224*224*64*3*3*3.
  EXPECT_EQ(count_macs(conv, inputs, infer_output_shape(conv, inputs)),
            224LL * 224 * 64 * 27);
}

TEST(Layer, Conv2DNoBias) {
  const Layer conv = Layer::conv2d(64, 3, 1, Padding::kSame, false);
  EXPECT_EQ(count_params(conv, in(TensorShape::hwc(8, 8, 3))).trainable,
            1728);
}

TEST(Layer, GroupedConvDividesInputChannels) {
  // AlexNet conv2: 256 filters, 5x5, groups 2 over 96 channels.
  const Layer conv =
      Layer::conv2d(256, 5, 1, Padding::kSame, true, ActivationKind::kLinear,
                    2);
  const auto inputs = in(TensorShape::hwc(27, 27, 96));
  EXPECT_EQ(count_params(conv, inputs).trainable, 5 * 5 * 48 * 256 + 256);
  EXPECT_THROW(infer_output_shape(conv, in(TensorShape::hwc(27, 27, 97))),
               CheckError);
}

TEST(Layer, DepthwiseConv) {
  const Layer dw = Layer::depthwise_conv2d(3, 1, Padding::kSame, false);
  const auto inputs = in(TensorShape::hwc(112, 112, 32));
  EXPECT_EQ(infer_output_shape(dw, inputs), TensorShape::hwc(112, 112, 32));
  EXPECT_EQ(count_params(dw, inputs).trainable, 3 * 3 * 32);
  EXPECT_EQ(count_macs(dw, inputs, infer_output_shape(dw, inputs)),
            112LL * 112 * 32 * 9);
}

TEST(Layer, DepthwiseConvMultiplier) {
  const Layer dw = Layer::depthwise_conv2d(3, 1, Padding::kSame, true, 2);
  const auto inputs = in(TensorShape::hwc(8, 8, 16));
  EXPECT_EQ(infer_output_shape(dw, inputs).c, 32);
  EXPECT_EQ(count_params(dw, inputs).trainable, 9 * 32 + 32);
}

TEST(Layer, DenseParamsAndShape) {
  const Layer dense = Layer::dense(1000, true);
  const auto inputs = in(TensorShape::flat(4096));
  EXPECT_EQ(infer_output_shape(dense, inputs), TensorShape::flat(1000));
  EXPECT_EQ(count_params(dense, inputs).trainable, 4096 * 1000 + 1000);
  EXPECT_EQ(count_macs(dense, inputs, infer_output_shape(dense, inputs)),
            4096 * 1000);
}

TEST(Layer, DenseRejectsRank3Input) {
  const Layer dense = Layer::dense(10);
  EXPECT_THROW(infer_output_shape(dense, in(TensorShape::hwc(7, 7, 512))),
               CheckError);
}

TEST(Layer, BatchNormParams) {
  const Layer bn = Layer::batch_norm();
  const auto inputs = in(TensorShape::hwc(56, 56, 256));
  const ParamCount p = count_params(bn, inputs);
  EXPECT_EQ(p.trainable, 512);      // gamma + beta
  EXPECT_EQ(p.non_trainable, 512);  // moving stats
  EXPECT_EQ(infer_output_shape(bn, inputs), inputs.front());
}

TEST(Layer, BatchNormOnFlatInput) {
  const Layer bn = Layer::batch_norm();
  EXPECT_EQ(count_params(bn, in(TensorShape::flat(128))).trainable, 256);
}

TEST(Layer, PoolingShapes) {
  const Layer mp = Layer::max_pool(2, 2);
  EXPECT_EQ(infer_output_shape(mp, in(TensorShape::hwc(224, 224, 64))),
            TensorShape::hwc(112, 112, 64));
  const Layer mp3 = Layer::max_pool(3, 2, Padding::kSame);
  EXPECT_EQ(infer_output_shape(mp3, in(TensorShape::hwc(147, 147, 64))).h,
            74);
  EXPECT_EQ(count_params(mp, in(TensorShape::hwc(8, 8, 4))).total(), 0);
}

TEST(Layer, PoolDefaultStrideEqualsPool) {
  const Layer p = Layer::avg_pool(2);
  EXPECT_EQ(p.stride_h, 2);
}

TEST(Layer, GlobalAvgPoolFlattens) {
  const Layer gap = Layer::global_avg_pool();
  EXPECT_EQ(infer_output_shape(gap, in(TensorShape::hwc(7, 7, 2048))),
            TensorShape::flat(2048));
}

TEST(Layer, AddRequiresMatchingShapes) {
  const Layer add = Layer::add();
  const TensorShape a = TensorShape::hwc(28, 28, 256);
  EXPECT_EQ(infer_output_shape(add, {a, a}), a);
  EXPECT_EQ(infer_output_shape(add, {a, a, a}), a);
  EXPECT_THROW(infer_output_shape(add, {a, TensorShape::hwc(28, 28, 128)}),
               CheckError);
  EXPECT_THROW(infer_output_shape(add, {a}), CheckError);  // arity
}

TEST(Layer, MultiplyBroadcastsChannelVector) {
  const Layer mul = Layer::multiply();
  const TensorShape map = TensorShape::hwc(14, 14, 480);
  const TensorShape vec = TensorShape::flat(480);
  EXPECT_EQ(infer_output_shape(mul, {map, vec}), map);
  EXPECT_EQ(infer_output_shape(mul, {vec, map}), map);
  EXPECT_THROW(infer_output_shape(mul, {map, TensorShape::flat(100)}),
               CheckError);
}

TEST(Layer, ConcatSumsChannels) {
  const Layer cat = Layer::concat();
  const TensorShape a = TensorShape::hwc(28, 28, 64);
  const TensorShape b = TensorShape::hwc(28, 28, 32);
  EXPECT_EQ(infer_output_shape(cat, {a, b}).c, 96);
  EXPECT_THROW(
      infer_output_shape(cat, {a, TensorShape::hwc(14, 14, 32)}),
      CheckError);
}

TEST(Layer, FlattenAndZeroPad) {
  EXPECT_EQ(infer_output_shape(Layer::flatten(),
                               in(TensorShape::hwc(6, 6, 256))),
            TensorShape::flat(9216));
  EXPECT_EQ(infer_output_shape(Layer::zero_pad(3, 3, 3, 3),
                               in(TensorShape::hwc(224, 224, 3))),
            TensorShape::hwc(230, 230, 3));
  EXPECT_THROW(Layer::zero_pad(-1, 0, 0, 0), CheckError);
}

TEST(Layer, RectangularConv) {
  // Inception's 1x7 factorized conv.
  const Layer conv = Layer::conv2d_rect(192, 1, 7, 1, 1, Padding::kSame,
                                        false);
  const auto inputs = in(TensorShape::hwc(17, 17, 160));
  EXPECT_EQ(infer_output_shape(conv, inputs), TensorShape::hwc(17, 17, 192));
  EXPECT_EQ(count_params(conv, inputs).trainable, 1 * 7 * 160 * 192);
}

TEST(Layer, FactoriesValidate) {
  EXPECT_THROW(Layer::conv2d(0, 3), CheckError);
  EXPECT_THROW(Layer::conv2d(10, 3, 1, Padding::kSame, true,
                             ActivationKind::kLinear, 3),
               CheckError);  // filters not divisible by groups
  EXPECT_THROW(Layer::dense(0), CheckError);
  EXPECT_THROW(Layer::dropout(1.0), CheckError);
}

TEST(Layer, WeightedLayerClassification) {
  EXPECT_TRUE(is_weighted_layer(LayerKind::kConv2D));
  EXPECT_TRUE(is_weighted_layer(LayerKind::kDepthwiseConv2D));
  EXPECT_TRUE(is_weighted_layer(LayerKind::kDense));
  EXPECT_FALSE(is_weighted_layer(LayerKind::kBatchNorm));
  EXPECT_FALSE(is_weighted_layer(LayerKind::kMaxPool));
}

TEST(Layer, Names) {
  EXPECT_STREQ(layer_kind_name(LayerKind::kConv2D), "Conv2D");
  EXPECT_STREQ(activation_name(ActivationKind::kSwish), "swish");
}

}  // namespace
}  // namespace gpuperf::cnn
