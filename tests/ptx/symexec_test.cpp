// The central correctness property of the dynamic code analysis: the
// sliced, accelerated symbolic executor must count exactly what brute-
// force interpretation of every thread counts — for every kernel in
// the library and across boundary-heavy launch geometries.
#include "ptx/symexec.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "ptx/codegen.hpp"
#include "ptx/interpreter.hpp"
#include "ptx/parser.hpp"

namespace gpuperf::ptx {
namespace {

const PtxModule& library() {
  static const PtxModule lib =
      parse_ptx(CodeGenerator::kernel_library().to_ptx());
  return lib;
}

/// A launch of library kernel `name`, arguments bound by name.
KernelLaunch lib_launch(
    const std::string& name, std::int64_t grid, std::int64_t block,
    std::initializer_list<std::pair<std::string_view, std::int64_t>> args) {
  return bind_launch(library().kernel(name), grid, block, args);
}

void expect_matches_brute_force(const KernelLaunch& launch) {
  const std::string& kernel_name = launch.kernel;
  const PtxKernel& kernel = library().kernel(kernel_name);
  const SymbolicExecutor sym(kernel);
  const Interpreter interp(kernel);
  const ExecutionCounts sc = sym.run(launch);
  const ThreadCounts ic = interp.run_all(launch);
  EXPECT_EQ(sc.total, ic.total) << kernel_name;
  for (std::size_t c = 0; c < sc.by_class.size(); ++c)
    EXPECT_EQ(sc.by_class[c], ic.by_class[c])
        << kernel_name << " class " << op_class_name(static_cast<OpClass>(c));
}

struct ElementwiseCase {
  std::int64_t grid;
  std::int64_t n;
};

class ElementwiseSweep : public ::testing::TestWithParam<ElementwiseCase> {};

TEST_P(ElementwiseSweep, CopyMatches) {
  expect_matches_brute_force(
      lib_launch("gp_copy", GetParam().grid, 256,
                 {{"p_dst", 1}, {"p_a", 2}, {"p_n", GetParam().n}}));
}

TEST_P(ElementwiseSweep, SwishMatches) {
  expect_matches_brute_force(
      lib_launch("gp_swish", GetParam().grid, 256,
                 {{"p_dst", 1}, {"p_a", 2}, {"p_n", GetParam().n}}));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ElementwiseSweep,
    ::testing::Values(ElementwiseCase{1, 1},       // single thread active
                      ElementwiseCase{1, 255},     // partial block
                      ElementwiseCase{1, 256},     // exact block
                      ElementwiseCase{2, 257},     // one past a block
                      ElementwiseCase{4, 1024},    // exact grid
                      ElementwiseCase{2, 2000},    // grid-stride loops
                      ElementwiseCase{3, 700}));   // capped + idle tail

TEST(SymExec, AddKernelBoundaries) {
  for (std::int64_t n : {1, 100, 512, 513, 3000})
    expect_matches_brute_force(lib_launch(
        "gp_add", 2, 256, {{"p_dst", 1}, {"p_a", 2}, {"p_b", 3}, {"p_n", n}}));
}

TEST(SymExec, BnAndBroadcast) {
  expect_matches_brute_force(
      lib_launch("gp_bn", 3, 256,
                 {{"p_dst", 1}, {"p_a", 2},   {"p_scale", 3},
                  {"p_shift", 4}, {"p_n", 2000}, {"p_c", 32}}));

  expect_matches_brute_force(
      lib_launch("gp_mul_bcast", 2, 256,
                 {{"p_dst", 1}, {"p_a", 2}, {"p_se", 3}, {"p_n", 700},
                  {"p_c", 7}}));
}

TEST(SymExec, Im2colWindows) {
  for (std::int64_t window : {1, 9, 27, 147})
    expect_matches_brute_force(
        lib_launch("gp_im2col", 2, 256,
                   {{"p_col", 1}, {"p_src", 2}, {"p_patches", 300},
                    {"p_window", window}}));
}

TEST(SymExec, GemmTileCounts) {
  for (std::int64_t kt : {1, 2, 7, 36})
    expect_matches_brute_force(
        lib_launch("gp_gemm", 3, 256,
                   {{"p_c", 1}, {"p_a", 2},      {"p_b", 3},  {"p_bias", 4},
                    {"p_total", 600}, {"p_n", 30}, {"p_kt", kt}}));
}

TEST(SymExec, DwConvAndPooling) {
  expect_matches_brute_force(
      lib_launch("gp_dwconv", 2, 256,
                 {{"p_dst", 1}, {"p_src", 2}, {"p_w", 3}, {"p_out", 400},
                  {"p_window", 9}}));
  for (const char* name : {"gp_pool_max", "gp_pool_avg"})
    expect_matches_brute_force(
        lib_launch(name, 2, 256,
                   {{"p_dst", 1}, {"p_src", 2}, {"p_out", 400},
                    {"p_window", 9}}));
}

TEST(SymExec, GapStridedReduction) {
  for (std::int64_t hw : {1, 49, 196, 1024})
    expect_matches_brute_force(
        lib_launch("gp_gap", 1, 256,
                   {{"p_dst", 1}, {"p_src", 2}, {"p_c", 130}, {"p_hw", hw}}));
}

TEST(SymExec, SoftmaxDivergentTreeReduction) {
  for (std::int64_t n : {1, 100, 256, 999, 1000, 4000})
    expect_matches_brute_force(lib_launch(
        "gp_softmax", 1, 256, {{"p_dst", 1}, {"p_src", 2}, {"p_n", n}}));
}

TEST(SymExec, LoopAccelerationIsExactOnLongLoops) {
  // A trip count far beyond what the executor iterates concretely;
  // brute force stays feasible because only 8 threads run.
  const PtxKernel k = parse_ptx(R"(
.visible .entry longloop(
  .param .u32 p_n
) {
  .reg .pred %p<2>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [p_n];
  mov.u32 %r3, 0;
LOOP:
  add.s32 %r3, %r3, 1;
  add.s32 %r3, %r3, 0;
  setp.lt.s32 %p1, %r3, %r2;
  @%p1 bra LOOP;
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 8, {{"p_n", 100000}});
  const ExecutionCounts sc = SymbolicExecutor(k).run(l);
  const ThreadCounts ic = Interpreter(k).run_all(l);
  EXPECT_EQ(sc.total, ic.total);
  // 3 prologue + 100000 * 4 + 1 ret, per thread.
  EXPECT_EQ(sc.total, 8 * (3 + 100000 * 4 + 1));
}

TEST(SymExec, ThreadDependentTripCounts) {
  // Each thread loops tid times: trip counts vary across the box, so
  // the executor must split at every exit boundary.
  const PtxKernel k = parse_ptx(R"(
.visible .entry tidloop() {
  .reg .pred %p<3>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, 0;
  setp.le.s32 %p1, %r1, 0;
  @%p1 bra EXIT;
LOOP:
  add.s32 %r2, %r2, 1;
  setp.lt.s32 %p2, %r2, %r1;
  @%p2 bra LOOP;
EXIT:
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 32, {});
  const ExecutionCounts sc = SymbolicExecutor(k).run(l);
  const ThreadCounts ic = Interpreter(k).run_all(l);
  EXPECT_EQ(sc.total, ic.total);
}

TEST(SymExec, RejectsDataDependentBranch) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry datadep(
  .param .u64 p_a
) {
  .reg .pred %p<2>;
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  ld.param.u64 %rd1, [p_a];
  ld.global.u32 %r1, [%rd1];
  setp.gt.s32 %p1, %r1, 0;
  @%p1 bra EXIT;
  mov.u32 %r2, 0;
EXIT:
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 1, {{"p_a", 100}});
  EXPECT_THROW(SymbolicExecutor(k).run(l), CheckError);
}

TEST(SymExec, DetectsNonTerminatingLoop) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry forever() {
  .reg .pred %p<2>;
  .reg .u32 %r<3>;
  mov.u32 %r1, 0;
LOOP:
  add.s32 %r1, %r1, 0;
  setp.ge.s32 %p1, %r1, 0;
  @%p1 bra LOOP;
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 1, {});
  EXPECT_THROW(SymbolicExecutor(k).run(l), CheckError);
}

TEST(SymExec, CountsScaleLinearlyWithGrid) {
  // Uniform kernels: doubling the grid doubles every count.
  KernelLaunch l = lib_launch("gp_im2col", 2, 256,
                              {{"p_col", 1}, {"p_src", 2},
                               {"p_patches", 1 << 20}, {"p_window", 9}});
  const SymbolicExecutor sym(library().kernel("gp_im2col"));
  const std::int64_t base = sym.run(l).total;
  l.grid_dim = 4;
  EXPECT_EQ(sym.run(l).total, 2 * base);
}

TEST(SymExec, HugeLaunchRunsFast) {
  // A GEMM the size of a VGG conv layer: ~10^9 dynamic instructions
  // counted exactly without iterating them.
  const KernelLaunch l =
      lib_launch("gp_gemm", (224 * 224 * 64 + 255) / 256, 256,
                 {{"p_c", 1},  {"p_a", 2}, {"p_b", 3}, {"p_bias", 4},
                  {"p_total", 224 * 224 * 64}, {"p_n", 64}, {"p_kt", 36}});
  const ExecutionCounts counts =
      SymbolicExecutor(library().kernel("gp_gemm")).run(l);
  EXPECT_GT(counts.total, 1'000'000'000LL);
}


TEST(SymExec, EqualityPredicateSplitsSingleThread) {
  // Only tid == 7 takes the branch: the eq split carves a 1-wide box.
  const PtxKernel k = parse_ptx(R"(
.visible .entry eqk() {
  .reg .pred %p<2>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  setp.eq.s32 %p1, %r1, 7;
  @%p1 bra EXTRA;
  bra EXIT;
EXTRA:
  add.s32 %r2, %r1, 1;
  add.s32 %r3, %r2, 1;
EXIT:
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 2, 32, {});
  const ExecutionCounts sc = SymbolicExecutor(k).run(l);
  const ThreadCounts ic = Interpreter(k).run_all(l);
  EXPECT_EQ(sc.total, ic.total);
  // 62 threads skip (mov, setp, bra-not-taken, bra, ret = 5), 2
  // threads (tid 7 of each block) take the extra path (mov, setp,
  // bra-taken, add, add, ret = 6).
  EXPECT_EQ(sc.total, 62 * 5 + 2 * 6);
}

TEST(SymExec, InequalityPredicateAndNegatedGuard) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry nek() {
  .reg .pred %p<2>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  setp.ne.s32 %p1, %r1, 3;
  @!%p1 bra SPECIAL;
  bra EXIT;
SPECIAL:
  add.s32 %r2, %r1, 1;
EXIT:
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 16, {});
  const ExecutionCounts sc = SymbolicExecutor(k).run(l);
  const ThreadCounts ic = Interpreter(k).run_all(l);
  EXPECT_EQ(sc.total, ic.total);
}

TEST(SymExec, EqualityOnCtaid) {
  // Only block 2 takes the branch: the eq split acts on the ctaid axis.
  const PtxKernel k = parse_ptx(R"(
.visible .entry eqb() {
  .reg .pred %p<2>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %ctaid.x;
  setp.eq.s32 %p1, %r1, 2;
  @%p1 bra EXTRA;
  bra EXIT;
EXTRA:
  add.s32 %r2, %r1, 1;
EXIT:
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 5, 64, {});
  const ExecutionCounts sc = SymbolicExecutor(k).run(l);
  const ThreadCounts ic = Interpreter(k).run_all(l);
  EXPECT_EQ(sc.total, ic.total);
}

TEST(SymExec, MixedCtaidTidGuardSplitsExactly) {
  // gid-style guard where both coefficients are nonzero: the general
  // box-split path with one mixed row.
  const PtxKernel k = parse_ptx(R"(
.visible .entry mixed() {
  .reg .pred %p<2>;
  .reg .u32 %r<5>;
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.s32 %r4, %r1, %r2, %r3;
  setp.lt.s32 %p1, %r4, 100;
  @%p1 bra WORK;
  bra EXIT;
WORK:
  add.s32 %r4, %r4, 1;
EXIT:
  ret;
}
)").kernels.front();
  // Threshold 100 falls inside block 3.
  const KernelLaunch l = bind_launch(k, 4, 32, {});
  const ExecutionCounts sc = SymbolicExecutor(k).run(l);
  const ThreadCounts ic = Interpreter(k).run_all(l);
  EXPECT_EQ(sc.total, ic.total);
}

}  // namespace
}  // namespace gpuperf::ptx
