#include "ptx/counter.hpp"

#include <gtest/gtest.h>

#include "cnn/static_analyzer.hpp"
#include "cnn/zoo.hpp"
#include "common/check.hpp"

namespace gpuperf::ptx {
namespace {

TEST(Counter, ProfilesWholeModel) {
  const cnn::Model model = cnn::zoo::build("MobileNetV2");
  const CompiledModel compiled = CodeGenerator().compile(model);
  const InstructionCounter counter;
  const ModelInstructionProfile profile = counter.count(compiled);

  EXPECT_EQ(profile.model_name, "MobileNetV2");
  EXPECT_EQ(profile.launch_count,
            static_cast<std::int64_t>(compiled.launches.size()));
  EXPECT_EQ(profile.per_launch.size(), compiled.launches.size());
  EXPECT_GT(profile.total_instructions, 0);
  EXPECT_GT(profile.total_threads, 0);

  // The totals equal the per-launch sums.
  std::int64_t sum = 0;
  for (std::int64_t v : profile.per_launch) sum += v;
  EXPECT_EQ(sum, profile.total_instructions);

  std::int64_t class_sum = 0;
  for (std::int64_t v : profile.by_class) class_sum += v;
  EXPECT_EQ(class_sum, profile.total_instructions);
}

TEST(Counter, DeterministicAcrossInstances) {
  const cnn::Model model = cnn::zoo::build("alexnet");
  const CompiledModel compiled = CodeGenerator().compile(model);
  const InstructionCounter a, b;
  EXPECT_EQ(a.count(compiled).total_instructions,
            b.count(compiled).total_instructions);
}

TEST(Counter, LargerModelsExecuteMoreInstructions) {
  const InstructionCounter counter;
  const CodeGenerator codegen;
  const std::int64_t small =
      counter.count(codegen.compile(cnn::zoo::build("MobileNetV2")))
          .total_instructions;
  const std::int64_t big =
      counter.count(codegen.compile(cnn::zoo::build("vgg16")))
          .total_instructions;
  EXPECT_GT(big, 10 * small);
}

TEST(Counter, RejectsUnknownKernel) {
  const InstructionCounter counter;
  KernelLaunch l;
  l.kernel = "gp_not_a_kernel";
  EXPECT_THROW(counter.count_launch(l), CheckError);
}

TEST(Counter, EveryLaunchCountsSomething) {
  const cnn::Model model = cnn::zoo::build("densenet121");
  const CompiledModel compiled = CodeGenerator().compile(model);
  const InstructionCounter counter;
  const ModelInstructionProfile profile = counter.count(compiled);
  for (std::size_t i = 0; i < profile.per_launch.size(); ++i)
    EXPECT_GT(profile.per_launch[i], 0)
        << compiled.launches[i].kernel << " launch " << i;
}


TEST(Counter, FmaCountConsistentWithAnalyzerMacs) {
  // Cross-module invariant: the dynamic FMA count of the lowered
  // kernels brackets the static analyzer's MAC count.  GEMM pads K to
  // the tile and rounds the grid up, so fma >= MACs, but never by a
  // large factor on real architectures.
  const cnn::StaticAnalyzer analyzer;
  const InstructionCounter counter;
  const CodeGenerator codegen;
  for (const char* name : {"vgg16", "MobileNetV2", "resnet50v2"}) {
    const cnn::Model model = cnn::zoo::build(name);
    const std::int64_t macs = analyzer.analyze(model).macs;
    const CompiledModel compiled = codegen.compile(model);
    const ModelInstructionProfile profile = counter.count(compiled);
    const std::int64_t fma =
        profile.by_class[static_cast<std::size_t>(OpClass::kFma)];
    EXPECT_GE(fma, macs * 9 / 10) << name;
    EXPECT_LE(fma, 4 * macs) << name;
  }
}

TEST(Counter, InstructionCountScalesWithInputResolution) {
  // Same topology, larger input: strictly more executed instructions.
  const InstructionCounter counter;
  const CodeGenerator codegen;
  auto count_for = [&](std::int64_t hw) {
    cnn::Model m("probe");
    const cnn::NodeId input = m.add_input(hw, hw, 3);
    const cnn::NodeId conv = m.add(cnn::Layer::conv2d(16, 3), input);
    m.add(cnn::Layer::max_pool(2), conv);
    return counter.count(codegen.compile(m)).total_instructions;
  };
  EXPECT_LT(count_for(32), count_for(64));
  EXPECT_LT(count_for(64), count_for(128));
}

}  // namespace
}  // namespace gpuperf::ptx
