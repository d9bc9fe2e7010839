#include "ptx/interpreter.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "ptx/parser.hpp"

namespace gpuperf::ptx {
namespace {

TEST(Interpreter, StraightLineCountsEveryInstruction) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry s() {
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  add.s32 %r2, %r1, 5;
  mul.lo.s32 %r3, %r2, 2;
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 4, {});
  const ThreadCounts c = Interpreter(k).run_thread(l, 0, 2);
  EXPECT_EQ(c.total, 4);
  EXPECT_EQ(c.by_class[static_cast<std::size_t>(OpClass::kIntAlu)], 2);
  EXPECT_EQ(c.by_class[static_cast<std::size_t>(OpClass::kMove)], 1);
  EXPECT_EQ(c.by_class[static_cast<std::size_t>(OpClass::kControl)], 1);
}

TEST(Interpreter, LoopTripCountFromParam) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry loop(
  .param .u32 p_n
) {
  .reg .pred %p<2>;
  .reg .u32 %r<3>;
  mov.u32 %r1, 0;
  ld.param.u32 %r2, [p_n];
LOOP:
  add.s32 %r1, %r1, 1;
  setp.lt.s32 %p1, %r1, %r2;
  @%p1 bra LOOP;
  ret;
}
)").kernels.front();
  // 2 prologue + 10 * 3 loop + 1 ret.
  EXPECT_EQ(
      Interpreter(k).run_thread(bind_launch(k, 1, 1, {{"p_n", 10}}), 0, 0)
          .total,
      2 + 30 + 1);
  EXPECT_EQ(
      Interpreter(k).run_thread(bind_launch(k, 1, 1, {{"p_n", 1}}), 0, 0)
          .total,
      2 + 3 + 1);
}

TEST(Interpreter, GuardedBranchDependsOnThreadId) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry g(
  .param .u32 p_n
) {
  .reg .pred %p<2>;
  .reg .u32 %r<4>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [p_n];
  setp.ge.s32 %p1, %r1, %r2;
  @%p1 bra EXIT;
  add.s32 %r3, %r1, 1;
  add.s32 %r3, %r3, 1;
EXIT:
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 8, {{"p_n", 4}});
  const Interpreter interp(k);
  // Threads 0-3 execute the body (7 instrs), 4-7 skip it (5 instrs).
  EXPECT_EQ(interp.run_thread(l, 0, 0).total, 7);
  EXPECT_EQ(interp.run_thread(l, 0, 3).total, 7);
  EXPECT_EQ(interp.run_thread(l, 0, 4).total, 5);
  EXPECT_EQ(interp.run_thread(l, 0, 7).total, 5);
  EXPECT_EQ(interp.run_all(l).total, 4 * 7 + 4 * 5);
}

TEST(Interpreter, SelpAndArithmetic) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry sel() {
  .reg .pred %p<2>;
  .reg .u32 %r<5>;
  mov.u32 %r1, %tid.x;
  setp.gt.s32 %p1, %r1, 2;
  selp.b32 %r2, 100, 200, %p1;
  shl.b32 %r3, %r2, 1;
  ret;
}
)").kernels.front();
  const KernelLaunch l = bind_launch(k, 1, 8, {});
  // Counts are uniform; correctness of selp checked indirectly by
  // running without errors for all threads.
  EXPECT_EQ(Interpreter(k).run_all(l).total, 8 * 5);
}

TEST(Interpreter, RejectsMissingArgument) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry m(
  .param .u32 p_n
) {
  .reg .u32 %r<2>;
  ld.param.u32 %r1, [p_n];
  ret;
}
)").kernels.front();
  KernelLaunch l;  // binds none of the kernel's one parameter
  l.kernel = "m";
  EXPECT_THROW(Interpreter(k).run_thread(l, 0, 0), CheckError);
}

TEST(Interpreter, RejectsOutOfRangeThread) {
  const PtxKernel k = parse_ptx(
      ".visible .entry t() { ret; }").kernels.front();
  const KernelLaunch l = bind_launch(k, 2, 4, {});
  EXPECT_THROW(Interpreter(k).run_thread(l, 2, 0), CheckError);
  EXPECT_THROW(Interpreter(k).run_thread(l, 0, 4), CheckError);
}

TEST(Interpreter, SharedMemoryRoundTrip) {
  const PtxKernel k = parse_ptx(R"(
.visible .entry sm() {
  .shared .align 4 .b8 smem[64];
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  .reg .f32 %f<3>;
  mov.u64 %rd1, 8;
  mov.f32 %f1, 0f40490FDB;
  st.shared.f32 [%rd1], %f1;
  ld.shared.f32 %f2, [%rd1];
  ret;
}
)").kernels.front();
  EXPECT_EQ(Interpreter(k).run_thread(bind_launch(k, 1, 1, {}), 0, 0).total,
            5);
}

}  // namespace
}  // namespace gpuperf::ptx
