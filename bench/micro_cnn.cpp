// Microbenchmarks of the CNN substrate: zoo construction, static
// analysis, the CNN half of a cold feature computation, and model
// serialization throughput.  Construction, analysis and the CNN half
// also report allocs_per_op, counted by the replaced operator new
// below.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cnn/model_io.hpp"
#include "cnn/static_analyzer.hpp"
#include "cnn/zoo.hpp"
#include "ptx/codegen.hpp"

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

/// Heap allocations per iteration of the timed loop, as a counter.
benchmark::Counter allocs_per_op(std::uint64_t allocations,
                                 const benchmark::State& state) {
  return benchmark::Counter(static_cast<double>(allocations) /
                            static_cast<double>(state.iterations()));
}

void BM_BuildZooModel(benchmark::State& state, const char* name) {
  (void)cnn::zoo::build(name);  // sets up the zoo's registry
  const std::uint64_t allocations = g_allocations.load();
  for (auto _ : state) {
    const cnn::Model model = cnn::zoo::build(name);
    benchmark::DoNotOptimize(model.node_count());
  }
  state.counters["allocs_per_op"] =
      allocs_per_op(g_allocations.load() - allocations, state);
  state.SetLabel(name);
}
BENCHMARK_CAPTURE(BM_BuildZooModel, alexnet, "alexnet");
BENCHMARK_CAPTURE(BM_BuildZooModel, resnet152v2, "resnet152v2");
BENCHMARK_CAPTURE(BM_BuildZooModel, efficientnetb7, "efficientnetb7");
BENCHMARK_CAPTURE(BM_BuildZooModel, nasnetlarge, "nasnetlarge");

void BM_StaticAnalysis(benchmark::State& state, const char* name) {
  const cnn::Model model = cnn::zoo::build(name);
  const cnn::StaticAnalyzer analyzer;
  const std::uint64_t allocations = g_allocations.load();
  for (auto _ : state) {
    const cnn::ModelReport report = analyzer.analyze(model);
    benchmark::DoNotOptimize(report.trainable_params);
  }
  state.counters["allocs_per_op"] =
      allocs_per_op(g_allocations.load() - allocations, state);
  state.SetLabel(name);
}
BENCHMARK_CAPTURE(BM_StaticAnalysis, mobilenetv2, "MobileNetV2");
BENCHMARK_CAPTURE(BM_StaticAnalysis, efficientnetb7, "efficientnetb7");

/// The CNN half of a cold feature computation, as
/// core::FeatureExtractor runs it: build, one shape pass, static
/// analysis and lowering over those shapes.
void BM_CnnHalfMobileNetV2(benchmark::State& state) {
  (void)cnn::zoo::build("MobileNetV2");  // sets up the zoo's registry
  const cnn::StaticAnalyzer analyzer;
  const ptx::CodeGenerator codegen;
  const std::uint64_t allocations = g_allocations.load();
  for (auto _ : state) {
    const cnn::Model model = cnn::zoo::build("MobileNetV2");
    const std::vector<cnn::TensorShape> shapes = analyzer.infer_shapes(model);
    const cnn::ModelReport report = analyzer.analyze(model, shapes);
    const ptx::CompiledModel compiled = codegen.compile(model, shapes);
    benchmark::DoNotOptimize(report.trainable_params);
    benchmark::DoNotOptimize(compiled.launches.size());
  }
  state.counters["allocs_per_op"] =
      allocs_per_op(g_allocations.load() - allocations, state);
}
BENCHMARK(BM_CnnHalfMobileNetV2);

void BM_SerializeModel(benchmark::State& state) {
  const cnn::Model model = cnn::zoo::build("resnet50v2");
  for (auto _ : state) {
    const std::string text = cnn::serialize_model(model);
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_SerializeModel);

void BM_DeserializeModel(benchmark::State& state) {
  const std::string text =
      cnn::serialize_model(cnn::zoo::build("resnet50v2"));
  for (auto _ : state) {
    const cnn::Model model = cnn::deserialize_model(text);
    benchmark::DoNotOptimize(model.node_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) *
                          state.iterations());
}
BENCHMARK(BM_DeserializeModel);

void BM_AnalyzeWholeZoo(benchmark::State& state) {
  const cnn::StaticAnalyzer analyzer;
  for (auto _ : state) {
    std::int64_t total = 0;
    for (const auto& entry : cnn::zoo::all_models())
      total += analyzer.analyze(entry.build()).trainable_params;
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AnalyzeWholeZoo);

}  // namespace

BENCHMARK_MAIN();
