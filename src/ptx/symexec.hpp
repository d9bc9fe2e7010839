// Symbolic execution of sliced PTX kernels — the paper's dynamic code
// analysis engine.  Only slice instructions (those feeding branch
// decisions) are evaluated; every other instruction is merely counted.
//
// The value domain is affine in the thread coordinates:
//     v = c0 + c_ct * ctaid.x + c_t * tid.x
// which covers everything CNN kernels branch on (thread-id guards and
// parameter-bound loop counters).  Thread divergence is handled by
// splitting the (ctaid, tid) launch box at predicate boundaries, and
// long loops are summarized by affine acceleration: once three
// consecutive back-edge evaluations show constant register/count
// deltas, the remaining trip count is solved in closed form.  The
// result is exact — equal to brute-force interpretation of every
// thread — at a cost near-independent of tensor sizes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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
  /// Per-basic-block execution counts (thread-level).
  std::vector<std::int64_t> block_exec;

  ExecutionCounts& operator+=(const ExecutionCounts& other);
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
  /// loaded data, non-affine divergence) and on diverging loops.  Throws
  /// AnalysisTimeout when `deadline` expires mid-run (one charge() per
  /// symbolic block step).
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

}  // namespace gpuperf::ptx
