// CNN -> PTX lowering.  Mirrors what nvcc + a CNN runtime produce: a
// fixed library of kernels (tiled GEMM, im2col, depthwise conv,
// pooling, reductions, elementwise epilogues) plus one launch per layer
// operation binding concrete dimensions.  The generated module is PTX
// *text*; the analysis pipeline parses it back like it would parse real
// nvcc output.
//
// Codegen contract relied on by the symbolic executor: branches are
// either (a) linear-thread-id guards, or (b) loop back-edges whose
// conditions depend only on parameters and induction registers — never
// on data loaded from global memory.  Real CNN kernels satisfy the same
// property.
//
// compile() lowers from the node shapes of cnn::StaticAnalyzer's one
// shape pass and sizes its launch tables from the model before the
// first launch, so a lowering allocates about one block per launch
// (its argument array) and none per node.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnn/model.hpp"
#include "ptx/module.hpp"

namespace gpuperf::ptx {

/// Analytic DRAM traffic for one launch (inputs + weights touched once,
/// outputs written once — the roofline assumption for cached kernels).
struct LaunchStats {
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t flops = 0;
};

struct CompiledModel {
  std::string model_name;
  std::vector<KernelLaunch> launches;
  std::vector<LaunchStats> stats;    // parallel to launches
  /// Name of the model layer each launch implements (parallel to
  /// launches) — the basis for per-layer latency attribution.
  std::vector<std::string> sources;
};

class CodeGenerator {
 public:
  /// Threads per block for every generated kernel.
  static constexpr int kBlockDim = 256;
  /// GEMM tile edge (K is padded to a multiple of this by the "host").
  static constexpr int kGemmTile = 16;

  /// The full fixed kernel library, independent of any model.
  static PtxModule kernel_library();

  /// kernel_library() round-tripped through its textual PTX form and
  /// parsed — the form every analysis consumes.  Parsed exactly once
  /// per process and shared; callers must not mutate it (take a copy
  /// for that).
  static const PtxModule& parsed_kernel_library();

  /// Lower a model to launches over the kernel library.  `shapes` must
  /// be cnn::StaticAnalyzer::infer_shapes(model).  `batch` > 1 scales
  /// every activation-sized index space (weights stay shared), modeling
  /// batched inference.
  CompiledModel compile(const cnn::Model& model,
                        std::span<const cnn::TensorShape> shapes,
                        std::int64_t batch = 1) const;

  /// infer_shapes(), then the lowering above.
  CompiledModel compile(const cnn::Model& model,
                        std::int64_t batch = 1) const;
};

}  // namespace gpuperf::ptx
