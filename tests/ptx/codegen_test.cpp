#include "ptx/codegen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "ptx/counter.hpp"
#include "ptx/parser.hpp"

namespace gpuperf::ptx {
namespace {

/// The value `launch` binds to its kernel's parameter `name`.
std::int64_t arg(const KernelLaunch& launch, std::string_view name) {
  const PtxKernel& kernel =
      CodeGenerator::parsed_kernel_library().kernel(launch.kernel);
  return launch.args.at(kernel.param_slot(name));
}

TEST(Codegen, LibraryContainsExpectedKernels) {
  const PtxModule lib = CodeGenerator::kernel_library();
  std::set<std::string> names;
  for (const auto& k : lib.kernels) names.insert(k.name);
  for (const char* expected :
       {"gp_copy", "gp_relu", "gp_relu6", "gp_sigmoid", "gp_swish",
        "gp_tanh", "gp_add", "gp_mul", "gp_bn", "gp_mul_bcast",
        "gp_im2col", "gp_gemm", "gp_dwconv", "gp_pool_max", "gp_pool_avg",
        "gp_gap", "gp_softmax"})
    EXPECT_EQ(names.count(expected), 1u) << expected;
}

TEST(Codegen, LibraryTextParses) {
  const std::string text = CodeGenerator::kernel_library().to_ptx();
  EXPECT_NE(text.find(".version"), std::string::npos);
  EXPECT_NE(text.find(".visible .entry gp_gemm"), std::string::npos);
  const PtxModule reparsed = parse_ptx(text);
  EXPECT_EQ(reparsed.kernels.size(),
            CodeGenerator::kernel_library().kernels.size());
}

TEST(Codegen, GemmKernelShape) {
  const PtxModule lib = CodeGenerator::kernel_library();
  const PtxKernel& gemm = lib.kernel("gp_gemm");
  EXPECT_EQ(gemm.reqntid, CodeGenerator::kBlockDim);
  EXPECT_GT(gemm.shared_bytes, 0);
  ASSERT_EQ(gemm.params.size(), 7u);
  EXPECT_NE(gemm.labels.find("KLOOP"), gemm.labels.end());
  EXPECT_NE(gemm.labels.find("JLOOP"), gemm.labels.end());
}

TEST(Codegen, CompileTinyModel) {
  cnn::Model m("tiny");
  const cnn::NodeId input = m.add_input(8, 8, 3);
  const cnn::NodeId conv = m.add(
      cnn::Layer::conv2d(4, 3, 1, cnn::Padding::kSame, true,
                         cnn::ActivationKind::kReLU),
      input);
  const cnn::NodeId pool = m.add(cnn::Layer::max_pool(2), conv);
  const cnn::NodeId flat = m.add(cnn::Layer::flatten(), pool);
  m.add(cnn::Layer::dense(10, true, cnn::ActivationKind::kSoftmax), flat);

  const CompiledModel compiled = CodeGenerator().compile(m);
  EXPECT_EQ(compiled.model_name, "tiny");
  EXPECT_EQ(compiled.launches.size(), compiled.stats.size());

  // Expected: im2col + gemm + relu (conv), pool, gemm + softmax (dense).
  std::vector<std::string> kernels;
  for (const auto& l : compiled.launches) kernels.push_back(l.kernel);
  EXPECT_EQ(kernels,
            (std::vector<std::string>{"gp_im2col", "gp_gemm", "gp_relu",
                                      "gp_pool_max", "gp_gemm",
                                      "gp_softmax"}));
}

TEST(Codegen, LaunchArgumentsMatchKernelParams) {
  const cnn::Model model = cnn::zoo::build("MobileNetV2");
  const CompiledModel compiled = CodeGenerator().compile(model);
  const PtxModule lib = CodeGenerator::kernel_library();
  // The lowering hands out synthetic device addresses from here up.
  constexpr std::int64_t kFirstAddress = 0x10000000;
  for (const auto& launch : compiled.launches) {
    const PtxKernel& kernel = lib.kernel(launch.kernel);
    ASSERT_EQ(launch.args.size(), kernel.params.size()) << launch.kernel;
    // Every slot holds the kind of value its parameter takes, so the
    // positional values line up with the declared parameter order.
    for (std::size_t i = 0; i < kernel.params.size(); ++i) {
      if (kernel.params[i].is_pointer) {
        EXPECT_GE(launch.args[i], kFirstAddress)
            << launch.kernel << " " << kernel.params[i].name;
      } else {
        EXPECT_GE(launch.args[i], 1)
            << launch.kernel << " " << kernel.params[i].name;
        EXPECT_LT(launch.args[i], kFirstAddress)
            << launch.kernel << " " << kernel.params[i].name;
      }
    }
    EXPECT_GE(launch.grid_dim, 1);
    EXPECT_EQ(launch.block_dim, CodeGenerator::kBlockDim);
  }
}

TEST(Codegen, BindLaunchFillsParameterSlotsByName) {
  const PtxKernel& copy =
      CodeGenerator::parsed_kernel_library().kernel("gp_copy");
  // Named in any order, stored in parameter order (p_dst, p_a, p_n).
  const KernelLaunch l =
      bind_launch(copy, 3, 128, {{"p_n", 7}, {"p_dst", 1}, {"p_a", 2}});
  EXPECT_EQ(l.kernel, "gp_copy");
  EXPECT_EQ(l.grid_dim, 3);
  EXPECT_EQ(l.block_dim, 128);
  EXPECT_EQ(l.args, (std::vector<std::int64_t>{1, 2, 7}));

  EXPECT_THROW(bind_launch(copy, 1, 256,
                           {{"p_dst", 1}, {"p_a", 2}, {"p_n", 3}, {"p_x", 4}}),
               CheckError);  // unknown name
  EXPECT_THROW(bind_launch(copy, 1, 256,
                           {{"p_dst", 1}, {"p_a", 2}, {"p_a", 5}, {"p_n", 3}}),
               CheckError);  // bound twice
  EXPECT_THROW(bind_launch(copy, 1, 256, {{"p_dst", 1}, {"p_a", 2}}),
               CheckError);  // p_n left unbound
}

TEST(Codegen, GroupedConvEmitsPerGroupGemm) {
  cnn::Model m("grouped");
  const cnn::NodeId input = m.add_input(8, 8, 4);
  m.add(cnn::Layer::conv2d(8, 3, 1, cnn::Padding::kSame, true,
                           cnn::ActivationKind::kLinear, 2),
        input);
  const CompiledModel compiled = CodeGenerator().compile(m);
  std::size_t gemms = 0, im2cols = 0;
  for (const auto& l : compiled.launches) {
    gemms += l.kernel == "gp_gemm";
    im2cols += l.kernel == "gp_im2col";
  }
  EXPECT_EQ(gemms, 2u);
  EXPECT_EQ(im2cols, 2u);
}

TEST(Codegen, StatsArePositiveAndConsistent) {
  const cnn::Model model = cnn::zoo::build("mobilenet");
  const CompiledModel compiled = CodeGenerator().compile(model);
  for (std::size_t i = 0; i < compiled.stats.size(); ++i) {
    EXPECT_GT(compiled.stats[i].bytes_read, 0) << i;
    EXPECT_GT(compiled.stats[i].bytes_written, 0) << i;
    EXPECT_GE(compiled.stats[i].flops, 0) << i;
  }
}

TEST(Codegen, GemmKPaddedToTile) {
  cnn::Model m("pad");
  const cnn::NodeId input = m.add_input(4, 4, 3);  // K = 3*3*3 = 27 -> 32
  m.add(cnn::Layer::conv2d(4, 3), input);
  const CompiledModel compiled = CodeGenerator().compile(m);
  for (const auto& l : compiled.launches) {
    if (l.kernel != "gp_gemm") continue;
    EXPECT_EQ(arg(l, "p_kt"),
              (27 + CodeGenerator::kGemmTile - 1) / CodeGenerator::kGemmTile);
  }
}

TEST(Codegen, ViewsEmitNoKernels) {
  cnn::Model m("views");
  const cnn::NodeId input = m.add_input(4, 4, 4);
  const cnn::NodeId flat = m.add(cnn::Layer::flatten(), input);
  m.add(cnn::Layer::dropout(0.5), flat);
  const CompiledModel compiled = CodeGenerator().compile(m);
  EXPECT_TRUE(compiled.launches.empty());
}

TEST(Codegen, DeterministicAcrossCalls) {
  const cnn::Model model = cnn::zoo::build("alexnet");
  const CompiledModel a = CodeGenerator().compile(model);
  const CompiledModel b = CodeGenerator().compile(model);
  ASSERT_EQ(a.launches.size(), b.launches.size());
  for (std::size_t i = 0; i < a.launches.size(); ++i) {
    EXPECT_EQ(a.launches[i].kernel, b.launches[i].kernel);
    EXPECT_EQ(a.launches[i].grid_dim, b.launches[i].grid_dim);
    EXPECT_EQ(a.launches[i].args, b.launches[i].args);
  }
}


TEST(Codegen, BatchScalesActivationWork) {
  const cnn::Model model = cnn::zoo::build("MobileNetV2");
  const CodeGenerator codegen;
  const InstructionCounter counter;
  const std::int64_t one =
      counter.count(codegen.compile(model, 1)).total_instructions;
  const std::int64_t eight =
      counter.count(codegen.compile(model, 8)).total_instructions;
  // Activations scale linearly; shared fixed overheads keep it a bit
  // below exactly 8x.
  EXPECT_GT(eight, 6 * one);
  EXPECT_LE(eight, 9 * one);
}

TEST(Codegen, BatchPreservesLaunchStructure) {
  cnn::Model m("bt");
  const cnn::NodeId input = m.add_input(8, 8, 3);
  const cnn::NodeId conv = m.add(cnn::Layer::conv2d(4, 3), input);
  const cnn::NodeId flat = m.add(cnn::Layer::flatten(),
                                 m.add(cnn::Layer::max_pool(2), conv));
  m.add(cnn::Layer::dense(10, true, cnn::ActivationKind::kSoftmax), flat);
  const CodeGenerator codegen;
  const CompiledModel b1 = codegen.compile(m, 1);
  const CompiledModel b4 = codegen.compile(m, 4);
  ASSERT_EQ(b1.launches.size(), b4.launches.size());
  for (std::size_t i = 0; i < b1.launches.size(); ++i)
    EXPECT_EQ(b1.launches[i].kernel, b4.launches[i].kernel) << i;
  // Batched softmax runs one block per row.
  EXPECT_EQ(b4.launches.back().kernel, "gp_softmax");
  EXPECT_EQ(b4.launches.back().grid_dim, 4);
  EXPECT_EQ(arg(b4.launches.back(), "p_n"), arg(b1.launches.back(), "p_n"));
}

TEST(Codegen, RejectsImplausibleBatch) {
  const cnn::Model model = cnn::zoo::build("alexnet");
  EXPECT_THROW(CodeGenerator().compile(model, 0), CheckError);
  EXPECT_THROW(CodeGenerator().compile(model, 5000), CheckError);
}

}  // namespace
}  // namespace gpuperf::ptx
