#include "cnn/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cnn/model_io.hpp"
#include "cnn/static_analyzer.hpp"
#include "common/check.hpp"

namespace gpuperf::cnn {
namespace {

TEST(Model, BuildsSimpleChain) {
  Model m("tiny");
  const NodeId input = m.add_input(32, 32, 3);
  const NodeId conv = m.add(Layer::conv2d(8, 3), input);
  const NodeId pool = m.add(Layer::max_pool(2), conv);
  EXPECT_EQ(m.node_count(), 3u);
  EXPECT_EQ(m.output(), pool);
  m.validate();
}

TEST(Model, InputMustBeFirstAndUnique) {
  Model m("bad");
  m.add_input(8, 8, 3);
  EXPECT_THROW(m.add_input(8, 8, 3), CheckError);

  Model m2("bad2");
  EXPECT_THROW(m2.add(Layer::conv2d(8, 3), std::vector<NodeId>{0}),
               CheckError);
}

TEST(Model, RejectsForwardReferences) {
  Model m("fwd");
  const NodeId input = m.add_input(8, 8, 3);
  EXPECT_THROW(m.add(Layer::conv2d(8, 3), NodeId{5}), CheckError);
  EXPECT_THROW(m.add(Layer::conv2d(8, 3), NodeId{-1}), CheckError);
  (void)input;
}

TEST(Model, ArityCheckedAtAdd) {
  Model m("arity");
  const NodeId input = m.add_input(8, 8, 3);
  const NodeId c1 = m.add(Layer::conv2d(8, 3), input);
  EXPECT_THROW(m.add(Layer::add(), c1), CheckError);  // add needs >= 2
  EXPECT_THROW(m.add(Layer::conv2d(8, 3), {c1, input}), CheckError);
}

TEST(Model, ConvBnActExpandsToThreeNodes) {
  Model m("chain");
  const NodeId input = m.add_input(8, 8, 3);
  const NodeId out = m.conv_bn_act(input, 16, 3);
  EXPECT_EQ(m.node_count(), 4u);  // input + conv + bn + relu
  EXPECT_EQ(m.node(out).layer.kind, LayerKind::kActivation);
  // Linear activation skips the activation node.
  const NodeId out2 =
      m.conv_bn_act(out, 16, 1, 1, Padding::kSame, ActivationKind::kLinear);
  EXPECT_EQ(m.node(out2).layer.kind, LayerKind::kBatchNorm);
}

TEST(Model, ExplicitOutputSelection) {
  Model m("multi");
  const NodeId input = m.add_input(8, 8, 3);
  const NodeId a = m.add(Layer::conv2d(8, 3), input);
  m.add(Layer::conv2d(4, 1), a);  // a second head
  m.set_output(a);
  EXPECT_EQ(m.output(), a);
  EXPECT_THROW(m.set_output(99), CheckError);
}

TEST(Model, AutoNamesAreUnique) {
  Model m("names");
  const NodeId input = m.add_input(8, 8, 3);
  const NodeId c1 = m.add(Layer::conv2d(8, 3), input);
  const NodeId c2 = m.add(Layer::conv2d(8, 3), c1);
  EXPECT_NE(m.node(c1).layer.name, m.node(c2).layer.name);
}

TEST(Model, InputShapeAccessor) {
  Model m("shape");
  m.add_input(331, 331, 3);
  EXPECT_EQ(m.input_shape(), TensorShape::hwc(331, 331, 3));
}

TEST(Model, MergesWiderThanTheInlineInputsKeepEveryInput) {
  Model m("wide");
  const NodeId input = m.add_input(8, 8, 3);
  std::vector<NodeId> branches;
  for (std::size_t i = 0; i < NodeInputs::kInline + 3; ++i)
    branches.push_back(m.add(Layer::conv2d(2, 1), input));
  const NodeId wide = m.add(Layer::concat(), branches);
  const NodeId pair = m.add(Layer::concat(), {branches[0], branches[1]});

  const NodeInputs& inputs = m.node(wide).inputs;
  ASSERT_EQ(inputs.size(), branches.size());
  EXPECT_TRUE(std::equal(inputs.begin(), inputs.end(), branches.begin()));
  EXPECT_EQ(m.node(pair).inputs.size(), 2u);
  EXPECT_EQ(StaticAnalyzer().infer_shapes(m)[static_cast<std::size_t>(wide)],
            TensorShape::hwc(8, 8, 2 * static_cast<std::int64_t>(
                                           branches.size())));

  // Copies and moves keep inline and spilled inputs alike.
  const Model copy = m;
  Model moved = Model(copy);
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(copy.node(id).inputs, m.node(id).inputs) << i;
    EXPECT_EQ(moved.node(id).inputs, m.node(id).inputs) << i;
  }
  moved = std::move(m);
  EXPECT_EQ(moved.node(wide).inputs, copy.node(wide).inputs);

  const Model restored = deserialize_model(serialize_model(copy));
  EXPECT_EQ(restored.node(wide).inputs, copy.node(wide).inputs);
}

TEST(Model, EmptyModelFailsValidation) {
  Model m("empty");
  EXPECT_THROW(m.validate(), CheckError);
  EXPECT_THROW(m.output(), CheckError);
  EXPECT_THROW(Model(""), CheckError);
}

}  // namespace
}  // namespace gpuperf::cnn
