// Ablation for the paper's core speed claim: slicing + symbolic
// execution versus brute-force interpretation of every thread.  Both
// must agree exactly on counts; the wall-clock gap is the reason the
// dynamic code analysis can replace a simulator.
#include <cstdio>

#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "ptx/codegen.hpp"
#include "ptx/interpreter.hpp"
#include "ptx/parser.hpp"
#include "ptx/symexec.hpp"

int main() {
  using namespace gpuperf;
  using namespace gpuperf::ptx;

  const PtxModule lib = parse_ptx(CodeGenerator::kernel_library().to_ptx());

  const std::vector<KernelLaunch> cases = {
      bind_launch(lib.kernel("gp_relu"), 64, 256,
                  {{"p_dst", 1}, {"p_a", 2}, {"p_n", 16000}}),
      bind_launch(lib.kernel("gp_gemm"), 32, 256,
                  {{"p_c", 1}, {"p_a", 2}, {"p_b", 3}, {"p_bias", 4},
                   {"p_total", 8000}, {"p_n", 40}, {"p_kt", 18}}),
      bind_launch(lib.kernel("gp_dwconv"), 16, 256,
                  {{"p_dst", 1}, {"p_src", 2}, {"p_out", 4000},
                   {"p_window", 9}, {"p_w", 3}}),
      bind_launch(lib.kernel("gp_softmax"), 1, 256,
                  {{"p_dst", 1}, {"p_src", 2}, {"p_n", 1000}}),
  };

  TextTable table(
      "Slicing ablation: sliced symbolic execution vs full interpretation");
  table.set_header({"kernel", "threads", "instructions", "slice/total",
                    "t_sliced (ms)", "t_full (ms)", "speedup"});

  for (const KernelLaunch& launch : cases) {
    const PtxKernel& kernel = lib.kernel(launch.kernel);
    const SymbolicExecutor sym(kernel);
    const Interpreter interp(kernel);

    Stopwatch w1;
    const ExecutionCounts sc = sym.run(launch);
    const double t_sliced = w1.elapsed_ms();

    Stopwatch w2;
    const ThreadCounts ic = interp.run_all(launch);
    const double t_full = w2.elapsed_ms();

    if (sc.total != ic.total) {
      std::fprintf(stderr, "COUNT MISMATCH on %s: %lld vs %lld\n",
                   launch.kernel.c_str(), static_cast<long long>(sc.total),
                   static_cast<long long>(ic.total));
      return 1;
    }

    table.add_row(
        {launch.kernel, with_commas(launch.total_threads()),
         with_commas(sc.total),
         std::to_string(sym.slice().slice_size()) + "/" +
             std::to_string(kernel.instructions.size()),
         fixed(t_sliced, 3), fixed(t_full, 1),
         fixed(t_full / (t_sliced > 0 ? t_sliced : 1e-6), 0) + "x"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nexpected shape: identical instruction counts with orders-of-\n"
      "magnitude lower analysis time for the sliced executor.\n");
  return 0;
}
