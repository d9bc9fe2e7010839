// Randomized property sweep over the dynamic code analysis: for every
// kernel in the library and many random launch geometries, the sliced
// symbolic executor must equal brute-force interpretation exactly.
// This is the load-bearing invariant of the whole reproduction — the
// feature p of the training vector is only meaningful if it is the
// true dynamic instruction count.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ptx/codegen.hpp"
#include "ptx/interpreter.hpp"
#include "ptx/parser.hpp"
#include "ptx/symexec.hpp"

namespace gpuperf::ptx {
namespace {

const PtxModule& library() {
  static const PtxModule lib =
      parse_ptx(CodeGenerator::kernel_library().to_ptx());
  return lib;
}

/// Random launch for a kernel, sized so brute force stays affordable.
KernelLaunch random_launch(const PtxKernel& def, Rng& rng) {
  const std::string& kernel = def.name;
  constexpr std::int64_t kBlock = 256;
  const std::int64_t grid = rng.uniform_int(1, 4);
  const std::int64_t n = rng.uniform_int(1, 2 * grid * kBlock);

  std::int64_t addr = 0x1000;
  auto ptr = [&] { return addr += 0x100000; };
  auto bind = [&](std::int64_t grid_dim,
                  std::initializer_list<std::pair<std::string_view,
                                                  std::int64_t>> args) {
    return bind_launch(def, grid_dim, kBlock, args);
  };

  if (kernel == "gp_copy" || kernel == "gp_relu" || kernel == "gp_relu6" ||
      kernel == "gp_sigmoid" || kernel == "gp_swish" ||
      kernel == "gp_tanh") {
    return bind(grid, {{"p_dst", ptr()}, {"p_a", ptr()}, {"p_n", n}});
  } else if (kernel == "gp_add" || kernel == "gp_mul") {
    return bind(grid,
                {{"p_dst", ptr()}, {"p_a", ptr()}, {"p_b", ptr()}, {"p_n", n}});
  } else if (kernel == "gp_bn") {
    return bind(grid, {{"p_dst", ptr()},   {"p_a", ptr()}, {"p_scale", ptr()},
                       {"p_shift", ptr()}, {"p_n", n},
                       {"p_c", rng.uniform_int(1, 64)}});
  } else if (kernel == "gp_mul_bcast") {
    return bind(grid, {{"p_dst", ptr()}, {"p_a", ptr()}, {"p_se", ptr()},
                       {"p_n", n},       {"p_c", rng.uniform_int(1, 64)}});
  } else if (kernel == "gp_im2col") {
    return bind(grid, {{"p_col", ptr()}, {"p_src", ptr()}, {"p_patches", n},
                       {"p_window", rng.uniform_int(1, 80)}});
  } else if (kernel == "gp_gemm") {
    return bind(grid, {{"p_c", ptr()},   {"p_a", ptr()}, {"p_b", ptr()},
                       {"p_bias", ptr()}, {"p_total", n},
                       {"p_n", rng.uniform_int(1, 128)},
                       {"p_kt", rng.uniform_int(1, 12)}});
  } else if (kernel == "gp_dwconv") {
    return bind(grid, {{"p_dst", ptr()}, {"p_src", ptr()}, {"p_w", ptr()},
                       {"p_out", n},     {"p_window", rng.uniform_int(1, 49)}});
  } else if (kernel == "gp_pool_max" || kernel == "gp_pool_avg") {
    return bind(grid, {{"p_dst", ptr()}, {"p_src", ptr()}, {"p_out", n},
                       {"p_window", rng.uniform_int(1, 49)}});
  } else if (kernel == "gp_gap") {
    return bind(1, {{"p_dst", ptr()}, {"p_src", ptr()},
                    {"p_c", rng.uniform_int(1, 256)},
                    {"p_hw", rng.uniform_int(1, 600)}});
  } else if (kernel == "gp_softmax") {
    return bind(1, {{"p_dst", ptr()}, {"p_src", ptr()},
                    {"p_n", rng.uniform_int(1, 3000)}});
  }
  ADD_FAILURE() << "no launch recipe for " << kernel;
  return bind_launch(def, grid, kBlock, {});
}

class DcaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DcaPropertyTest, SymExecEqualsBruteForceOnRandomLaunches) {
  Rng rng(GetParam());
  for (const auto& kernel : library().kernels) {
    const SymbolicExecutor sym(kernel);
    const Interpreter interp(kernel);
    for (int trial = 0; trial < 3; ++trial) {
      const KernelLaunch launch = random_launch(kernel, rng);
      const ExecutionCounts sc = sym.run(launch);
      const ThreadCounts ic = interp.run_all(launch);
      ASSERT_EQ(sc.total, ic.total)
          << kernel.name << " trial " << trial << " grid "
          << launch.grid_dim;
      for (std::size_t c = 0; c < sc.by_class.size(); ++c)
        ASSERT_EQ(sc.by_class[c], ic.by_class[c])
            << kernel.name << " class "
            << op_class_name(static_cast<OpClass>(c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcaPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gpuperf::ptx
