#include "core/features.hpp"

#include <gtest/gtest.h>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "gpu/device_db.hpp"

namespace gpuperf::core {
namespace {

TEST(Features, SchemaMatchesCnnPlusDevice) {
  const auto& names = FeatureExtractor::feature_names();
  ASSERT_EQ(names.size(), 2 + gpu::DeviceSpec::feature_names().size());
  EXPECT_EQ(names[0], "executed_instructions");
  EXPECT_EQ(names[1], "trainable_params");
  EXPECT_EQ(names[2], "mem_bandwidth_gbs");
}

TEST(Features, ComputeFillsAllFields) {
  FeatureExtractor extractor;
  const ModelFeatures f =
      extractor.compute(cnn::zoo::build("MobileNetV2"));
  EXPECT_EQ(f.model_name, "MobileNetV2");
  EXPECT_GT(f.executed_instructions, 0);
  EXPECT_EQ(f.trainable_params, 3504872);
  EXPECT_GT(f.macs, 0);
  EXPECT_GT(f.neurons, 0);
  EXPECT_GT(f.weighted_layers, 0);
  EXPECT_GE(f.dca_seconds, 0.0);
}

TEST(Features, FeatureVectorLayout) {
  FeatureExtractor extractor;
  const ModelFeatures f = extractor.compute(cnn::zoo::build("alexnet"));
  const gpu::DeviceSpec& device = gpu::device("gtx1080ti");
  const auto x = FeatureExtractor::feature_vector(f, device);
  ASSERT_EQ(x.size(), FeatureExtractor::feature_names().size());
  EXPECT_DOUBLE_EQ(x[0],
                   static_cast<double>(f.executed_instructions));
  EXPECT_DOUBLE_EQ(x[1], static_cast<double>(f.trainable_params));
  EXPECT_DOUBLE_EQ(x[2], device.memory_bandwidth_gbs);
}

TEST(Features, ZooCacheReturnsSameObject) {
  FeatureExtractor extractor;
  const ModelFeatures& a = extractor.for_zoo_model("alexnet");
  const ModelFeatures& b = extractor.for_zoo_model("alexnet");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(extractor.for_zoo_model("nope"), CheckError);
}

TEST(Features, GoldenExecutedInstructions) {
  // Pinned whole-model dynamic instruction counts: a change that shifts
  // every count together (codegen, slicing, the memo key, the launch
  // records) keeps every relative check green but fails here.
  const FeatureExtractor extractor;
  const std::pair<const char*, std::int64_t> golden[] = {
      {"alexnet", 8234316147},
      {"vgg16", 174936734370},
      {"MobileNetV2", 3182971670},
      {"resnet50v2", 40243393914},
  };
  for (const auto& [model, instructions] : golden)
    EXPECT_EQ(extractor.compute(cnn::zoo::build(model)).executed_instructions,
              instructions)
        << model;
}

TEST(Features, InstructionsDeterministic) {
  FeatureExtractor e1, e2;
  EXPECT_EQ(e1.compute(cnn::zoo::build("mobilenet")).executed_instructions,
            e2.compute(cnn::zoo::build("mobilenet")).executed_instructions);
}

}  // namespace
}  // namespace gpuperf::core
