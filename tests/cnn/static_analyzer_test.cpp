#include "cnn/static_analyzer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "registry/hash.hpp"

namespace gpuperf::cnn {
namespace {

TEST(StaticAnalyzer, HandComputedTinyModel) {
  Model m("tiny");
  const NodeId input = m.add_input(8, 8, 3);
  const NodeId conv = m.add(Layer::conv2d(4, 3, 1, Padding::kSame, true),
                            input);  // 3*3*3*4+4 = 112 params
  const NodeId pool = m.add(Layer::max_pool(2), conv);   // 4x4x4
  const NodeId flat = m.add(Layer::flatten(), pool);     // 64
  m.add(Layer::dense(10, true), flat);                   // 64*10+10 = 650

  const ModelReport r = StaticAnalyzer().analyze(m);
  EXPECT_EQ(r.trainable_params, 112 + 650);
  EXPECT_EQ(r.non_trainable_params, 0);
  EXPECT_EQ(r.weighted_layers, 2);
  // Neurons: conv 8*8*4=256, pool 4*4*4=64, flatten 64, dense 10.
  EXPECT_EQ(r.neurons, 256 + 64 + 64 + 10);
  // MACs: conv 8*8*4*27 = 6912, pool 64*4 = 256, dense 640.
  EXPECT_EQ(r.macs, 6912 + 256 + 640);
  EXPECT_EQ(r.flops, 2 * r.macs);
  EXPECT_EQ(r.layers.size(), m.node_count());
}

TEST(StaticAnalyzer, ResidualBranchShapes) {
  Model m("residual");
  const NodeId input = m.add_input(16, 16, 8);
  const NodeId a = m.add(Layer::conv2d(8, 3, 1, Padding::kSame, false),
                         input);
  const NodeId sum = m.add(Layer::add(), {input, a});
  const auto shapes = StaticAnalyzer().infer_shapes(m);
  EXPECT_EQ(shapes[static_cast<std::size_t>(sum)],
            TensorShape::hwc(16, 16, 8));
}

TEST(StaticAnalyzer, BatchNormCountsNonTrainable) {
  Model m("bn");
  const NodeId input = m.add_input(8, 8, 16);
  m.add(Layer::batch_norm(), input);
  const ModelReport r = StaticAnalyzer().analyze(m);
  EXPECT_EQ(r.trainable_params, 32);
  EXPECT_EQ(r.non_trainable_params, 32);
  EXPECT_EQ(r.total_params, 64);
}

TEST(StaticAnalyzer, ShapeErrorSurfaceFromBadModel) {
  Model m("bad");
  const NodeId input = m.add_input(8, 8, 3);
  m.add(Layer::dense(10), input);  // dense on rank-3: fails at analysis
  EXPECT_THROW(StaticAnalyzer().analyze(m), CheckError);
}

TEST(StaticAnalyzer, ShapesOfAnotherModelAreRejected) {
  const StaticAnalyzer analyzer;
  const Model model = zoo::alexnet();
  EXPECT_THROW(analyzer.analyze(model, analyzer.infer_shapes(zoo::vgg16())),
               CheckError);
}

// -- exact reproductions of published parameter counts --

TEST(StaticAnalyzer, Vgg16ExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::vgg16());
  EXPECT_EQ(r.trainable_params, 138357544);
  EXPECT_EQ(r.weighted_layers, 16);
}

TEST(StaticAnalyzer, Vgg19ExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::vgg19());
  EXPECT_EQ(r.trainable_params, 143667240);
  EXPECT_EQ(r.weighted_layers, 19);
}

TEST(StaticAnalyzer, MobileNetV2ExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::mobilenet_v2());
  EXPECT_EQ(r.trainable_params, 3504872);
}

TEST(StaticAnalyzer, MobileNetV1ExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::mobilenet());
  EXPECT_EQ(r.trainable_params, 4231976);
  EXPECT_EQ(r.weighted_layers, 28);
}

TEST(StaticAnalyzer, DenseNet121ExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::densenet121());
  EXPECT_EQ(r.trainable_params, 7978856);
}

TEST(StaticAnalyzer, XceptionExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::xception());
  EXPECT_EQ(r.trainable_params, 22855952);
}

TEST(StaticAnalyzer, EfficientNetB0ExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::efficientnet_b0());
  EXPECT_EQ(r.trainable_params, 5288548);
}

TEST(StaticAnalyzer, ResNet50V2ExactParams) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::resnet50_v2());
  EXPECT_EQ(r.trainable_params, 25568360);
}

void print_shape(std::ostream& os, const TensorShape& s) {
  os << s.h << ',' << s.w << ',' << s.c << ',' << s.rank;
}

// Every field of every layer report and every total of the 31 Table I
// models, as one FNV-1a digest.  Any change to shape inference,
// parameter, neuron or MAC counting, or auto naming moves it.
TEST(StaticAnalyzer, ZooReportsArePinned) {
  const StaticAnalyzer analyzer;
  std::uint64_t digest = registry::kFnvOffset;
  for (const zoo::ZooEntry& entry : zoo::all_models()) {
    const ModelReport r = analyzer.analyze(entry.build());
    std::ostringstream os;
    os << r.model_name << ' ';
    print_shape(os, r.input_shape);
    os << ' ' << r.trainable_params << ' ' << r.non_trainable_params << ' '
       << r.total_params << ' ' << r.neurons << ' ' << r.macs << ' '
       << r.flops << ' ' << r.weighted_layers << ' ' << r.node_count << '\n';
    for (const LayerReport& l : r.layers) {
      os << l.name << ' ' << static_cast<int>(l.kind) << ' ';
      print_shape(os, l.output_shape);
      os << ' ' << l.trainable_params << ' ' << l.non_trainable_params
         << ' ' << l.neurons << ' ' << l.macs << '\n';
    }
    digest = registry::fnv1a64(os.str(), digest);
  }
  EXPECT_EQ(digest, 0x46863e76613accb2ULL) << std::hex << digest;
}

TEST(StaticAnalyzer, ReportRendering) {
  const ModelReport r = StaticAnalyzer().analyze(zoo::vgg16());
  const std::string brief = to_string(r, false);
  EXPECT_NE(brief.find("vgg16"), std::string::npos);
  EXPECT_NE(brief.find("138,357,544"), std::string::npos);
  const std::string detailed = to_string(r, true);
  EXPECT_GT(detailed.size(), brief.size());
  EXPECT_NE(detailed.find("Conv2D"), std::string::npos);
}

}  // namespace
}  // namespace gpuperf::cnn
