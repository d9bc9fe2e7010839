// Structural verification of PTX kernels — the checks a PTX assembler
// would apply.  Only tests run it (over the generated kernel library
// and hand-written kernels); no analysis path calls it, so malformed
// input is caught by the parser, the CFG build and the symbolic
// executor's own checks instead.
#pragma once

#include <string>
#include <vector>

#include "ptx/module.hpp"

namespace gpuperf::ptx {

struct VerifyIssue {
  std::size_t instruction_index = 0;  // or npos for kernel-level issues
  std::string message;

  static constexpr std::size_t kKernelLevel = static_cast<std::size_t>(-1);
};

/// All problems found in one kernel; empty = verified clean.
/// Checks: branch targets resolve; register names match a declared
/// prefix and index range; guards are predicate registers; operand
/// shapes fit the opcode (setp has a compare op, loads/stores have a
/// memory operand, branches a label); param references name declared
/// parameters; control flow cannot fall off the end; shared-memory
/// kernels declare a buffer.
std::vector<VerifyIssue> verify_kernel(const PtxKernel& kernel);

/// Verify every kernel of a module; issue messages are prefixed with
/// the kernel name.
std::vector<VerifyIssue> verify_module(const PtxModule& module);

/// GP_CHECK-fails with the first issue if any; convenience for
/// pipelines.
void verify_or_throw(const PtxModule& module);

}  // namespace gpuperf::ptx
