// Differential equivalence suite for the interned-register DCA fast
// path: the dense-environment symbolic executor must produce counts
// bit-identical to the reference interpreter for EVERY kernel in the
// library, across a grid of launch geometries, and for hand-written
// kernels exercising guarded branches (plain and negated) and
// predicate-producing instructions.  This is the acceptance gate for
// the register-interning optimization — any divergence between the
// id-indexed and the (former) string-keyed semantics shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ptx/codegen.hpp"
#include "ptx/interpreter.hpp"
#include "ptx/parser.hpp"
#include "ptx/symexec.hpp"

namespace gpuperf::ptx {
namespace {

using i64 = std::int64_t;

/// Synthesize launch arguments for any library kernel, one per
/// parameter in its order: pointer-typed (u64) parameters get distinct
/// synthetic device addresses, scalar parameters get values keyed on
/// their (fixed) naming convention with `n` driving the
/// element-count-like ones.
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
      args.push_back(16);  // gemm's p_n is the column count, not a size
    } else {
      args.push_back(n);  // p_n / p_total / p_patches / p_out
    }
  }
  return args;
}

void expect_equivalent(const PtxKernel& kernel, const KernelLaunch& launch) {
  const SymbolicExecutor sym(kernel);
  const Interpreter interp(kernel);
  const ExecutionCounts sc = sym.run(launch);
  const ThreadCounts ic = interp.run_all(launch);
  EXPECT_EQ(sc.total, ic.total) << kernel.name << " grid=" << launch.grid_dim
                                << " block=" << launch.block_dim;
  for (std::size_t c = 0; c < sc.by_class.size(); ++c)
    EXPECT_EQ(sc.by_class[c], ic.by_class[c])
        << kernel.name << " class "
        << op_class_name(static_cast<OpClass>(c));
}

struct Geometry {
  i64 grid;
  i64 block;
  i64 n;
};

class LibraryDifferential : public ::testing::TestWithParam<Geometry> {};

TEST_P(LibraryDifferential, EveryKernelMatchesInterpreter) {
  const Geometry geo = GetParam();
  const PtxModule& lib = CodeGenerator::parsed_kernel_library();
  ASSERT_FALSE(lib.kernels.empty());
  for (const PtxKernel& kernel : lib.kernels) {
    ASSERT_TRUE(kernel.registers_interned()) << kernel.name;
    KernelLaunch launch;
    launch.kernel = kernel.name;
    launch.grid_dim = geo.grid;
    launch.block_dim = geo.block;
    launch.args = default_args(kernel, geo.n);
    expect_equivalent(kernel, launch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LibraryDifferential,
    ::testing::Values(Geometry{1, 256, 1},     // one active thread
                      Geometry{1, 256, 255},   // partial block
                      Geometry{2, 256, 257},   // one past a block
                      Geometry{3, 256, 700})); // idle tail + stride loops

TEST(DcaDifferential, NegatedGuardBranch) {
  // "@!%p bra" — the negated guard path through both engines.
  const PtxKernel k = parse_ptx(R"(
.visible .entry negguard(
  .param .u32 p_n
) {
  .reg .pred %p<2>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [p_n];
  setp.lt.s32 %p1, %r1, %r2;
  @!%p1 bra EXIT;
  add.s32 %r3, %r1, 1;
  add.s32 %r3, %r3, 2;
EXIT:
  ret;
}
)").kernels.front();
  for (i64 n : {0, 1, 100, 128, 200})
    expect_equivalent(k, bind_launch(k, 2, 128, {{"p_n", n}}));
}

TEST(DcaDifferential, EqualityPredicates) {
  // eq/ne split a box into at most three runs; ids must resolve the
  // same registers the names did.
  const PtxKernel k = parse_ptx(R"(
.visible .entry eqsplit(
  .param .u32 p_k
) {
  .reg .pred %p<3>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [p_k];
  setp.eq.s32 %p1, %r1, %r2;
  @%p1 bra SPECIAL;
  add.s32 %r3, %r1, 1;
  bra EXIT;
SPECIAL:
  add.s32 %r3, %r1, 2;
  add.s32 %r3, %r3, 3;
EXIT:
  ret;
}
)").kernels.front();
  for (i64 key : {0, 63, 64, 127, 500})
    expect_equivalent(k, bind_launch(k, 1, 128, {{"p_k", key}}));
}

TEST(DcaDifferential, ThreadDependentLoopWithGuards) {
  // Per-thread trip counts + a guarded skip: combines box splitting,
  // loop acceleration and guard evaluation in one kernel.
  const PtxKernel k = parse_ptx(R"(
.visible .entry tidloop2(
  .param .u32 p_cap
) {
  .reg .pred %p<4>;
  .reg .u32 %r<5>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [p_cap];
  mov.u32 %r4, 0;
  setp.le.s32 %p1, %r1, 0;
  @%p1 bra EXIT;
LOOP:
  add.s32 %r4, %r4, 1;
  setp.ge.s32 %p2, %r4, %r2;
  @%p2 bra EXIT;
  setp.lt.s32 %p3, %r4, %r1;
  @%p3 bra LOOP;
EXIT:
  ret;
}
)").kernels.front();
  for (i64 cap : {0, 5, 63, 200})
    expect_equivalent(k, bind_launch(k, 1, 64, {{"p_cap", cap}}));
}

TEST(DcaDifferential, RoundTripPreservesIdsAndCounts) {
  // Print → reparse must yield the same interned id assignment (ids
  // are first-appearance ordered, and appearance order survives the
  // text round trip), hence identical counts.
  const PtxModule& lib = CodeGenerator::parsed_kernel_library();
  const PtxModule reparsed = parse_ptx(lib.to_ptx());
  for (std::size_t i = 0; i < lib.kernels.size(); ++i) {
    const PtxKernel& a = lib.kernels[i];
    const PtxKernel& b = reparsed.kernels[i];
    ASSERT_EQ(a.name, b.name);
    ASSERT_EQ(a.register_names, b.register_names) << a.name;
    KernelLaunch launch;
    launch.kernel = a.name;
    launch.grid_dim = 2;
    launch.block_dim = 256;
    launch.args = default_args(a, 300);
    const ExecutionCounts ca = SymbolicExecutor(a).run(launch);
    const ExecutionCounts cb = SymbolicExecutor(b).run(launch);
    EXPECT_EQ(ca.total, cb.total) << a.name;
    EXPECT_EQ(ca.by_class, cb.by_class) << a.name;
  }
}

}  // namespace
}  // namespace gpuperf::ptx
