// Microbenchmarks of the estimation service: cold predictions (full
// DCA) vs warm ones (feature-cache hit + tree walk), the protocol
// overhead on a warm path, a warm `dse` sweep, and a burst of
// concurrent predicts sharing one DCA.  The cold/warm pair is the
// headline number — the service exists because a warm predict is
// orders of magnitude cheaper than a cold one.  The two warm
// handle_line benches also report allocs_per_op, counted by the
// replaced operator new below.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "common/fault.hpp"
#include "sandbox/worker_pool.hpp"
#include "serve/session.hpp"

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

serve::ServeOptions bench_options() {
  serve::ServeOptions options;
  // Small training subset: the benches measure serving, not training.
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  return options;
}

serve::ServeSession& shared_session() {
  static serve::ServeSession session(bench_options());
  return session;
}

// A cold predict pays for static analysis + PTX codegen + sliced
// symbolic execution.  Clearing the caches each iteration re-exposes
// that full path (the clear itself is a few map erases — noise).
void BM_PredictCold(benchmark::State& state) {
  serve::ServeSession& session = shared_session();
  for (auto _ : state) {
    session.reset_caches();
    benchmark::DoNotOptimize(session.predict("mobilenet", "v100s"));
  }
}
BENCHMARK(BM_PredictCold)->Unit(benchmark::kMicrosecond);

// A warm predict: DCA is amortized, so a feature-cache hit (through
// the circuit breaker) and one tree walk run.
void BM_PredictWarm(benchmark::State& state) {
  serve::ServeSession& session = shared_session();
  session.predict("mobilenet", "v100s");  // prime the feature cache
  for (auto _ : state)
    benchmark::DoNotOptimize(session.predict("mobilenet", "v100s"));
}
BENCHMARK(BM_PredictWarm)->Unit(benchmark::kMicrosecond);

#ifdef GPUPERF_FAULT_INJECTION
// The degraded path: DCA is forced to fail, so every predict falls
// back to static-features-only estimation with an imputed
// executed-instructions value (docs/ROBUSTNESS.md).  Degraded results
// are never cached, so each iteration pays the full fallback:
// single-flight miss + failed compute + static-report lookup +
// estimator walk.  This is the latency floor a client sees when the
// analysis budget trips — it must sit near the warm path, far from the
// cold one.
void BM_PredictDegraded(benchmark::State& state) {
  serve::ServeSession session(bench_options());
  // Warm the analysis path and the static-report cache with one healthy
  // pass before arming the fault.
  session.predict("alexnet", "v100s");
  session.handle_line("analyze mobilenet");
  fault::ScopedFault fail_dca("dca.compute", fault::Spec{});
  for (auto _ : state)
    benchmark::DoNotOptimize(
        session.handle_line("predict mobilenet v100s"));
}
BENCHMARK(BM_PredictDegraded)->Unit(benchmark::kMicrosecond);
#endif  // GPUPERF_FAULT_INJECTION

// The crash-isolation tax (docs/ROBUSTNESS.md "Crash isolation"): the
// same cold predict as BM_PredictCold, but the DCA pass runs in a
// sandboxed worker process — fork-pool scheduling, request/response
// framing over pipes, and the cross-process copy of the feature
// vector all land on top of the analysis itself.  Tracked next to the
// in-process number in BENCH_serve.json so the overhead stays an
// explicit, diffable slice.
void BM_PredictColdIsolated(benchmark::State& state) {
  serve::ServeOptions options = bench_options();
  options.isolate_dca = true;
  serve::ServeSession session(options);
  session.predict("mobilenet", "v100s");  // pre-fork + first-touch once
  for (auto _ : state) {
    session.reset_caches();
    benchmark::DoNotOptimize(session.predict("mobilenet", "v100s"));
  }
}
BENCHMARK(BM_PredictColdIsolated)->Unit(benchmark::kMicrosecond);

// The sandbox round-trip floor: a request the worker answers almost
// for free (parsing a four-line PTX kernel), so the number is pure
// pool overhead — slot acquisition, two CRC-framed pipe hops, and the
// worker's read-serve-write loop.  The gap between this and an
// in-process parse_ptx call bounds what isolation can ever cost a
// request that misses every cache.
void BM_SandboxRoundtrip(benchmark::State& state) {
  sandbox::PoolOptions options;
  options.workers = 1;
  sandbox::WorkerPool pool(options);
  const std::string tiny = ".visible .entry noop() {\n  ret;\n}\n";
  pool.check_ptx(tiny, Deadline());  // first-touch fork once
  for (auto _ : state) pool.check_ptx(tiny, Deadline());
}
BENCHMARK(BM_SandboxRoundtrip)->Unit(benchmark::kMicrosecond);

// The full wire-facing path on a warm cache: parse + dispatch +
// metrics + JSON serialization.
void BM_HandleLineCacheHit(benchmark::State& state) {
  serve::ServeSession& session = shared_session();
  session.handle_line("predict mobilenet v100s");  // prime
  const std::uint64_t allocations = g_allocations.load();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        session.handle_line("predict mobilenet v100s"));
  state.counters["allocs_per_op"] =
      allocs_per_op(g_allocations.load() - allocations, state);
}
BENCHMARK(BM_HandleLineCacheHit)->Unit(benchmark::kMicrosecond);

// A warm 8-model `dse` sweep (one model repeated) over the default
// seven-device fleet: every topology's features are cached by the
// warm-up `dse all`, so an iteration is the plan, 49 tree walks, the
// ranking and the JSON body, all on the calling thread.
void BM_DseWarm(benchmark::State& state) {
  serve::ServeSession& session = shared_session();
  session.handle_line("dse all");  // every model's features
  const std::string line =
      "dse alexnet,vgg16,mobilenet,resnet50v2,densenet121,MobileNetV2,"
      "efficientnetb0,vgg16 --max-latency-ms=1000 --w-power=0.5";
  if (session.handle_line(line).rfind("{\"ok\":true", 0) != 0) {
    state.SkipWithError("the dse line was not answered ok");
    return;
  }
  const std::uint64_t allocations = g_allocations.load();
  for (auto _ : state) benchmark::DoNotOptimize(session.handle_line(line));
  state.counters["allocs_per_op"] =
      allocs_per_op(g_allocations.load() - allocations, state);
}
BENCHMARK(BM_DseWarm)->Unit(benchmark::kMicrosecond);

void BM_StatsEndpoint(benchmark::State& state) {
  serve::ServeSession& session = shared_session();
  for (auto _ : state)
    benchmark::DoNotOptimize(session.handle_line("stats"));
}
BENCHMARK(BM_StatsEndpoint)->Unit(benchmark::kMicrosecond);

// Burst of concurrent predicts for one model across several devices,
// caches cleared each iteration so every burst pays one DCA.  Each
// request runs inline on its client thread; the single-flight feature
// cache makes the whole burst share that one DCA pass.
void BM_BurstPredicts(benchmark::State& state) {
  serve::ServeSession session(bench_options());
  session.predict("mobilenet", "v100s");  // pay training/first-touch once
  const std::vector<std::string> devices = {"gtx1080ti", "v100s",
                                            "teslat4"};
  constexpr int kClients = 6;
  constexpr int kPerClient = 4;
  for (auto _ : state) {
    state.PauseTiming();
    session.reset_caches();
    state.ResumeTiming();
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i)
          benchmark::DoNotOptimize(session.predict(
              "mobilenet", devices[(c + i) % devices.size()]));
      });
    for (auto& client : clients) client.join();
  }
  state.SetItemsProcessed(state.iterations() * kClients * kPerClient);
}
BENCHMARK(BM_BurstPredicts)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
