// Symbolic execution of sliced PTX kernels — the paper's dynamic code
// analysis engine.  Only slice instructions (those feeding branch
// decisions) are evaluated; every other instruction is merely counted.
//
// The value domain is affine in the thread coordinates:
//     v = c0 + c_ct * ctaid.x + c_t * tid.x
// which covers everything CNN kernels branch on (thread-id guards and
// parameter-bound loop counters).  Thread divergence is handled by
// splitting the (ctaid, tid) launch box at predicate boundaries, in
// closed form: a ctaid row's class changes only where the sign of its
// range's bounds does, so a split costs its mixed rows, not the grid.
// Long loops are summarized by affine acceleration: once three
// consecutive back-edge evaluations show constant register/count
// deltas, the remaining trip count is solved in closed form.  The
// result is exact — equal to brute-force interpretation of every
// thread — at a cost near-independent of tensor sizes.
//
// The constructor lowers each block's slice once into a flat program:
// small POD ops whose operands are already resolved (an environment
// slot, an integer immediate, a special register, a launch-argument
// slot or unknown) and one terminator (exit, jump, or guarded branch
// with its guard slot, target, fall-through and loop).  run() walks
// that program over fixed-width frames — the box, the block, the
// registers slice instructions write, per-block counts and, after a
// loop's first back-edge, a three-snapshot ring per loop — kept in a
// per-thread work stack that later runs reuse, so a run reads no
// Instruction and, once its thread has warmed up, allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "ptx/cfg.hpp"
#include "ptx/module.hpp"
#include "ptx/slicer.hpp"

namespace gpuperf::ptx {

struct ExecutionCounts {
  /// Thread-level dynamic instructions, summed over every thread.
  std::int64_t total = 0;
  std::array<std::int64_t, kOpClassCount> by_class{};
};

class SymbolicExecutor {
 public:
  /// Analyzes the kernel once (CFG, dependency graph, slice); run() can
  /// then be called for many launches.  `deadline` bounds the one-time
  /// analysis (it is not retained).  GP_CHECK-fails when an in-slice
  /// ld.param names no declared parameter.
  explicit SymbolicExecutor(const PtxKernel& kernel,
                            const Deadline& deadline = {});
  /// Move overload for giant (e.g. synthetic multi-million-instruction)
  /// kernels: adopts the kernel instead of copying its instruction
  /// stream.
  explicit SymbolicExecutor(PtxKernel&& kernel,
                            const Deadline& deadline = {});
  ~SymbolicExecutor();

  SymbolicExecutor(SymbolicExecutor&&) noexcept;
  SymbolicExecutor& operator=(SymbolicExecutor&&) noexcept;

  /// Count the dynamic instructions of one launch.  GP_CHECK-fails on
  /// a launch whose argument count differs from the kernel's parameter
  /// count, on kernels outside the supported fragment (branches on
  /// loaded data, non-affine divergence, malformed slice instructions —
  /// when the run reaches them) and on diverging loops.  Throws
  /// AnalysisTimeout when `deadline` expires mid-run (one charge() per
  /// symbolic block step).  Safe to call concurrently: each thread
  /// works in its own scratch frames.
  ExecutionCounts run(const KernelLaunch& launch,
                      const Deadline& deadline = {}) const;

  const Cfg& cfg() const;
  const Slice& slice() const;
  const PtxKernel& kernel() const;

  /// Slots (indices into KernelLaunch::args) of the kernel parameters
  /// read by in-slice ld.param instructions, in first-read order — the
  /// only launch arguments that can change run()'s result.  Launches
  /// differing solely in other arguments (e.g. buffer pointers) yield
  /// identical counts, which is what makes launch-config memoization
  /// effective.
  const std::vector<std::size_t>& slice_params() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The box splitter behind run(), declared for its differential test
/// and fuzz harness.  Inputs must lie where run() calls it: the
/// predicate's range over the whole box passed run()'s overflow check.
/// Both splitters clear `out` and write into it, so a caller that
/// splits often (run() does) reuses one buffer.
namespace detail {
struct Box {  // half-open launch sub-box
  std::int64_t ct_lo = 0, ct_hi = 0, t_lo = 0, t_hi = 0;
};
struct AffinePred {  // cmp(c0 + c_ct*ctaid + c_t*tid, 0)
  std::int64_t c0 = 0, c_ct = 0, c_t = 0;
  CompareOp op = CompareOp::kLt;
};
struct Range1 {
  std::int64_t lo, hi;
  bool truth;
};
/// Maximal runs of x in [lo, hi) over which cmp(c0 + c1*x, 0) is
/// constant, in ascending order.
void split_1d(std::int64_t c0, std::int64_t c1, std::int64_t lo,
              std::int64_t hi, CompareOp op, std::vector<Range1>& out);
/// Homogeneous sub-boxes of a box whose predicate is mixed, in ctaid
/// order: uniform ctaid runs whole, each mixed row split over tid.
/// GP_CHECK-fails past 64 mixed rows.
void split_box(const AffinePred& pred, const Box& box,
               std::vector<std::pair<Box, bool>>& out);
}  // namespace detail

}  // namespace gpuperf::ptx
