// Microbenchmarks of the dynamic code analysis pipeline: PTX parsing,
// CFG/slice construction, and symbolic execution of single launches and
// whole models.  The symbolic-run and cold whole-model benchmarks also
// report allocs_per_op, counted by the replaced operator new below.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cnn/zoo.hpp"
#include "common/deadline.hpp"
#include "ptx/codegen.hpp"
#include "ptx/counter.hpp"
#include "ptx/depgraph.hpp"
#include "ptx/parser.hpp"
#include "ptx/slicer.hpp"
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

namespace {

using namespace gpuperf;
using namespace gpuperf::ptx;

/// Heap allocations per iteration of the timed loop, as a counter.
benchmark::Counter allocs_per_op(std::uint64_t allocations,
                                 const benchmark::State& state) {
  return benchmark::Counter(static_cast<double>(allocations) /
                            static_cast<double>(state.iterations()));
}

void BM_ParseKernelLibrary(benchmark::State& state) {
  const std::string text = CodeGenerator::kernel_library().to_ptx();
  for (auto _ : state) {
    PtxModule mod = parse_ptx(text);
    benchmark::DoNotOptimize(mod.kernels.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) *
                          state.iterations());
}
BENCHMARK(BM_ParseKernelLibrary);

void BM_BuildSliceGemm(benchmark::State& state) {
  const PtxModule lib = parse_ptx(CodeGenerator::kernel_library().to_ptx());
  const PtxKernel& gemm = lib.kernel("gp_gemm");
  for (auto _ : state) {
    const DependencyGraph graph = DependencyGraph::build(gemm);
    const Slice slice = compute_slice(gemm, graph);
    benchmark::DoNotOptimize(slice.slice_size());
  }
}
BENCHMARK(BM_BuildSliceGemm);

void BM_SymExecGemm(benchmark::State& state) {
  const PtxModule lib = parse_ptx(CodeGenerator::kernel_library().to_ptx());
  const SymbolicExecutor sym(lib.kernel("gp_gemm"));
  const std::int64_t total = state.range(0);
  const KernelLaunch l =
      bind_launch(lib.kernel("gp_gemm"), (total + 255) / 256, 256,
                  {{"p_c", 1}, {"p_a", 2}, {"p_b", 3}, {"p_bias", 4},
                   {"p_total", total}, {"p_n", 64}, {"p_kt", 36}});
  std::int64_t instructions = 0;
  const std::uint64_t allocations = g_allocations.load();
  for (auto _ : state) {
    const ExecutionCounts counts = sym.run(l);
    instructions = counts.total;
    benchmark::DoNotOptimize(counts.total);
  }
  state.counters["allocs_per_op"] =
      allocs_per_op(g_allocations.load() - allocations, state);
  state.counters["instr_counted"] =
      benchmark::Counter(static_cast<double>(instructions));
}
BENCHMARK(BM_SymExecGemm)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// One grid-stride elementwise launch at a given grid: three full
/// strides plus a partial tail, so the loop accelerates and the tail
/// splits on a gid guard.  A run takes the same number of steps at
/// every grid, so time per run tracks the cost of a step, which should
/// not grow with the grid: a split pays for its mixed ctaid rows only.
void BM_SymExecElementwise(benchmark::State& state) {
  const PtxModule lib = parse_ptx(CodeGenerator::kernel_library().to_ptx());
  const PtxKernel& relu = lib.kernel("gp_relu");
  const SymbolicExecutor sym(relu);
  const std::int64_t grid = state.range(0);
  const KernelLaunch l =
      bind_launch(relu, grid, 256,
                  {{"p_dst", 1}, {"p_a", 2}, {"p_n", grid * 256 * 3 + 100}});
  Deadline counted = Deadline().with_step_budget(std::uint64_t{1} << 62);
  sym.run(l, counted);
  const std::uint64_t allocations = g_allocations.load();
  for (auto _ : state) {
    const ExecutionCounts counts = sym.run(l);
    benchmark::DoNotOptimize(counts.total);
  }
  state.counters["allocs_per_op"] =
      allocs_per_op(g_allocations.load() - allocations, state);
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(counted.steps_charged()));
}
BENCHMARK(BM_SymExecElementwise)->Arg(16)->Arg(256)->Arg(4096);

constexpr const char* kModelNames[] = {"MobileNetV2", "resnet50v2", "vgg16"};

/// Cold DCA: every iteration starts with an empty launch memo, so each
/// launch pays the full (interned, possibly parallel) symbolic run.
void BM_CountWholeModelCold(benchmark::State& state) {
  const cnn::Model model = cnn::zoo::build(kModelNames[state.range(0)]);
  const CodeGenerator codegen;
  const CompiledModel compiled = codegen.compile(model);
  const InstructionCounter counter;
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    InstructionCounter::reset_memo();
    state.ResumeTiming();
    const std::uint64_t before = g_allocations.load();
    const ModelInstructionProfile profile = counter.count(compiled);
    allocations += g_allocations.load() - before;
    benchmark::DoNotOptimize(profile.total_instructions);
  }
  state.counters["allocs_per_op"] = allocs_per_op(allocations, state);
  state.SetLabel(kModelNames[state.range(0)]);
}
BENCHMARK(BM_CountWholeModelCold)->Arg(0)->Arg(1)->Arg(2);

/// Warm DCA: repeated counting of the same model — the zoo-sweep /
/// serve-traffic shape.  Every distinct launch key is a memo hit, so an
/// iteration is grouping, one probe per key and the launch-order sum.
void BM_CountWholeModelWarm(benchmark::State& state) {
  const cnn::Model model = cnn::zoo::build(kModelNames[state.range(0)]);
  const CodeGenerator codegen;
  const CompiledModel compiled = codegen.compile(model);
  const InstructionCounter counter;
  counter.count(compiled);  // prime the memo
  for (auto _ : state) {
    const ModelInstructionProfile profile = counter.count(compiled);
    benchmark::DoNotOptimize(profile.total_instructions);
  }
  state.SetLabel(kModelNames[state.range(0)]);
}
BENCHMARK(BM_CountWholeModelWarm)->Arg(0)->Arg(1)->Arg(2);

/// Counter construction: binds to the process-shared parsed library —
/// O(1) after the first counter in the process (was: full PTX re-parse
/// plus per-kernel slicing, every time).
void BM_ConstructCounter(benchmark::State& state) {
  const InstructionCounter prime;  // pay the one-time analysis up front
  for (auto _ : state) {
    const InstructionCounter counter;
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_ConstructCounter);

void BM_CompileModel(benchmark::State& state) {
  const cnn::Model model = cnn::zoo::build("resnet50v2");
  const CodeGenerator codegen;
  for (auto _ : state) {
    const CompiledModel compiled = codegen.compile(model);
    benchmark::DoNotOptimize(compiled.launches.size());
  }
}
BENCHMARK(BM_CompileModel);

}  // namespace

BENCHMARK_MAIN();
