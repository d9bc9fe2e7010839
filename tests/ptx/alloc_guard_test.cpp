// Heap-allocation guard for cold DCA.  A symbolic run lowers nothing
// and allocates nothing once its thread's scratch frames have grown to
// the kernel's needs; a cold InstructionCounter::count() pays a small,
// fixed number of allocations per distinct launch key (the memo entry)
// and a few per call.  The CNN half in front of it (build, static
// analysis, lowering) pays about one allocation per launch, the launch's
// argument array, and none per node.  A replaced global operator new
// counts every allocation of this process, which is why the guard has a
// test binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "cnn/static_analyzer.hpp"
#include "cnn/zoo.hpp"
#include "ptx/codegen.hpp"
#include "ptx/counter.hpp"
#include "ptx/symexec.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Out of line, like the deletes below: inlined, malloc() and free()
// look mismatched with new and delete to -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gpuperf::ptx {
namespace {

using i64 = std::int64_t;

/// Arguments for any library kernel, as dca_differential_test builds
/// them: distinct buffer addresses, fixed values for the shape
/// parameters, `n` for the element counts.
std::vector<i64> default_args(const PtxKernel& kernel, i64 n) {
  std::vector<i64> args;
  i64 next_addr = 0x10000000;
  for (const KernelParam& p : kernel.params) {
    if (p.type == PtxType::kU64) {
      args.push_back(next_addr);
      next_addr += 0x100000;
    } else if (p.name == "p_window") {
      args.push_back(9);
    } else if (p.name == "p_c") {
      args.push_back(7);
    } else if (p.name == "p_kt") {
      args.push_back(3);
    } else if (p.name == "p_hw") {
      args.push_back(49);
    } else if (kernel.name == "gp_gemm" && p.name == "p_n") {
      args.push_back(16);
    } else {
      args.push_back(n);
    }
  }
  return args;
}

TEST(AllocGuard, WarmSymbolicRunsAllocateNothing) {
  struct Geometry {
    i64 grid, block, n;
  };
  // dca_differential_test's launch grid.
  constexpr Geometry kGeometries[] = {
      {1, 256, 1}, {1, 256, 255}, {2, 256, 257}, {3, 256, 700}};
  const PtxModule& lib = CodeGenerator::parsed_kernel_library();
  std::vector<SymbolicExecutor> executors;
  std::vector<std::pair<std::size_t, KernelLaunch>> launches;
  for (std::size_t k = 0; k < lib.kernels.size(); ++k) {
    executors.emplace_back(lib.kernels[k]);
    for (const Geometry& g : kGeometries) {
      KernelLaunch launch;
      launch.kernel = lib.kernels[k].name;
      launch.grid_dim = g.grid;
      launch.block_dim = g.block;
      launch.args = default_args(lib.kernels[k], g.n);
      launches.emplace_back(k, std::move(launch));
    }
  }
  for (const auto& [k, launch] : launches) executors[k].run(launch);

  for (const auto& [k, launch] : launches) {
    const std::uint64_t before = g_allocations.load();
    const ExecutionCounts counts = executors[k].run(launch);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << launch.kernel << " grid=" << launch.grid_dim;
    EXPECT_GT(counts.total, 0);
  }
}

TEST(AllocGuard, ColdCountAllocatesAtMostEightPerDistinctKey) {
  const CompiledModel compiled =
      CodeGenerator().compile(cnn::zoo::build("MobileNetV2"));
  const InstructionCounter counter;
  counter.count(compiled);  // grows every thread's scratch frames

  InstructionCounter::reset_memo();
  const auto before = InstructionCounter::memo_stats();
  const std::uint64_t allocations_before = g_allocations.load();
  const ModelInstructionProfile profile = counter.count(compiled);
  const std::uint64_t allocations =
      g_allocations.load() - allocations_before;
  const std::uint64_t keys = InstructionCounter::memo_stats().misses -
                             before.misses;

  ASSERT_GT(keys, 0u);
  EXPECT_GT(profile.total_instructions, 0);
  EXPECT_LE(allocations, 8 * keys)
      << allocations << " allocations for " << keys << " distinct keys";
}

TEST(AllocGuard, CnnHalfAllocatesAtMostOneAndAHalfPerLaunch) {
  // The first build also sets up the zoo's registry.
  (void)cnn::zoo::build("MobileNetV2");

  const std::uint64_t before = g_allocations.load();
  const cnn::Model model = cnn::zoo::build("MobileNetV2");
  const cnn::ModelReport report = cnn::StaticAnalyzer().analyze(model);
  const CompiledModel compiled = CodeGenerator().compile(model);
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_GT(compiled.launches.size(), 0u);
  EXPECT_EQ(report.layers.size(), model.node_count());
  EXPECT_LE(2 * allocations, 3 * compiled.launches.size())
      << allocations << " allocations for " << compiled.launches.size()
      << " launches of " << model.node_count() << " nodes";
}

}  // namespace
}  // namespace gpuperf::ptx
