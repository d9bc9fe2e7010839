// Microbenchmarks of the DSE sweep subsystem (docs/DSE.md): the cold
// cross-product sweep, the DCA-memo-warm sweep, the sweep over a warm
// feature store, and the constraint/Pareto ranking pass in isolation.
// main() runs the acceptance checks unconditionally before any
// benchmark: a warm full-zoo × seven-device sweep must beat naive
// per-pair evaluation by ≥ 10×, and a restarted process (fresh
// FeatureStore over the same directory) must replay the whole sweep
// with zero DCA runs — asserted via the store's recovered records and
// the process-wide DCA memo-miss delta.  The check lines go to standard
// error, so --benchmark_format=json on standard output stays JSON.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cnn/zoo.hpp"
#include "common/stopwatch.hpp"
#include "core/dataset_builder.hpp"
#include "core/estimator.hpp"
#include "core/features.hpp"
#include "dse/constraints.hpp"
#include "dse/sweep.hpp"
#include "gpu/device_db.hpp"
#include "ptx/counter.hpp"
#include "registry/feature_store.hpp"

namespace {

using namespace gpuperf;

const std::vector<std::string> kBenchModels = {"alexnet", "mobilenet",
                                               "MobileNetV2", "vgg16"};

std::string bench_dir(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("gpuperf_bench_" + name))
      .string();
}

/// One dt estimator trained on a small subset, built once.  Sweep cost
/// is dominated by DCA and store I/O, not by which regressor answers
/// the per-cell predictions.
const core::PerformanceEstimator& bench_estimator() {
  static const core::PerformanceEstimator* est = [] {
    core::DatasetOptions dataset;
    dataset.models = kBenchModels;
    const ml::Dataset data = core::DatasetBuilder(dataset).build();
    auto* e = new core::PerformanceEstimator("dt", 42);
    e->train(data);
    return e;
  }();
  return *est;
}

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for (const auto& entry : cnn::zoo::all_models())
    names.push_back(entry.name);
  return names;
}

// The full cross-product sweep with a cold DCA memo and no feature
// store: every distinct topology pays static analysis + PTX codegen +
// sliced symbolic execution, fanned over the shared pool.
void BM_SweepCold(benchmark::State& state) {
  const dse::SweepEngine engine(bench_estimator());
  dse::SweepRequest request;
  request.models = kBenchModels;
  for (auto _ : state) {
    ptx::InstructionCounter::reset_memo();
    benchmark::DoNotOptimize(engine.run(request));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kBenchModels.size() * gpu::dse_devices().size()));
}
BENCHMARK(BM_SweepCold)->Unit(benchmark::kMillisecond);

// Same sweep with the process-wide DCA launch memo warm (PR-4): the
// symbolic runs are answered from the memo, so this isolates codegen +
// feature assembly + per-cell prediction + ranking.
void BM_SweepMemoWarm(benchmark::State& state) {
  const dse::SweepEngine engine(bench_estimator());
  dse::SweepRequest request;
  request.models = kBenchModels;
  engine.run(request);  // prime the memo
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.run(request));
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kBenchModels.size() * gpu::dse_devices().size()));
}
BENCHMARK(BM_SweepMemoWarm)->Unit(benchmark::kMillisecond);

// Sweep against a populated feature store: every topology's features
// come from the journal-backed store, zero DCA, and every cell is
// predicted.  This is the latency a repeat `gpuperf dse --store` run
// pays once the process has the store open.
void BM_SweepStoreWarm(benchmark::State& state) {
  const std::string dir = bench_dir("dse_bm_store");
  std::filesystem::remove_all(dir);
  registry::FeatureStore store(dir);
  dse::SweepEngine::Options options;
  options.store = &store;
  const dse::SweepEngine engine(bench_estimator(), options);
  dse::SweepRequest request;
  request.models = kBenchModels;
  engine.run(request);  // populate the store
  // With the memo emptied, any analysis would show as memo misses.
  ptx::InstructionCounter::reset_memo();
  const std::uint64_t misses = ptx::InstructionCounter::memo_stats().misses;
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.run(request));
  if (ptx::InstructionCounter::memo_stats().misses != misses)
    state.SkipWithError("warm sweep ran DCA — feature store broken");
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kBenchModels.size() * gpu::dse_devices().size()));
}
BENCHMARK(BM_SweepStoreWarm)->Unit(benchmark::kMicrosecond);

// The constraint engine alone: summarize cells per device, mark the
// Pareto frontier, scalarize and rank.  Pure arithmetic over an
// in-memory sweep result — this bounds what the `dse` verb adds on top
// of the per-cell predictions.
void BM_ConstraintRanking(benchmark::State& state) {
  const dse::SweepEngine engine(bench_estimator());
  dse::SweepRequest request;
  request.models = kBenchModels;
  const dse::SweepResult sweep = engine.run(request);
  const std::vector<std::string>& devices = gpu::dse_devices();
  std::vector<dse::DeviceCost> costs;
  for (const std::string& name : devices) {
    const gpu::DeviceSpec& spec = gpu::device(name);
    costs.push_back({spec.has_cost_usd() ? spec.cost_usd : -1.0});
  }
  dse::Constraints constraints;
  constraints.w_latency = 1.0;
  constraints.w_power = 0.5;
  constraints.w_cost = 0.5;
  for (auto _ : state) {
    std::vector<dse::DeviceSummary> ranking =
        dse::summarize_cells(sweep.cells, devices, costs, constraints);
    dse::mark_pareto(ranking);
    dse::rank_summaries(ranking, constraints);
    benchmark::DoNotOptimize(ranking);
  }
}
BENCHMARK(BM_ConstraintRanking)->Unit(benchmark::kMicrosecond);

/// Acceptance check 1 (ISSUE): a warm full-zoo × seven-device sweep
/// must be ≥ 10× faster than naive per-pair evaluation, where naive
/// means a cold DCA pass for every (model, device) pair — the
/// cost structure the paper's Table IV replaces with t_dca + n·t_pm.
/// Acceptance check 2: a fresh FeatureStore over the same directory (a
/// restarted process) replays the sweep with zero DCA runs.
bool verify_sweep_acceptance() {
  const core::PerformanceEstimator& estimator = bench_estimator();
  const std::vector<std::string> zoo = zoo_names();
  const std::vector<std::string>& fleet = gpu::dse_devices();
  const std::size_t n_cells = zoo.size() * fleet.size();

  // ---- naive baseline: one cold DCA pass per pair -------------------
  Stopwatch naive_watch;
  for (const std::string& name : zoo) {
    const cnn::Model model = cnn::zoo::build(name);
    for (const std::string& device : fleet) {
      ptx::InstructionCounter::reset_memo();
      const core::FeatureExtractor extractor;
      const core::ModelFeatures features = extractor.compute(model);
      benchmark::DoNotOptimize(
          estimator.predict(features, gpu::device(device)));
    }
  }
  const double naive_s = naive_watch.elapsed_seconds();

  // ---- sweep: cold run populates the store, second run is warm ------
  const std::string dir = bench_dir("dse_verify_store");
  std::filesystem::remove_all(dir);
  dse::SweepRequest request;
  request.models = zoo;
  double warm_s = 0.0;
  {
    registry::FeatureStore store(dir);
    dse::SweepEngine::Options options;
    options.store = &store;
    const dse::SweepEngine engine(estimator, options);
    ptx::InstructionCounter::reset_memo();
    const dse::SweepResult cold = engine.run(request);
    if (cold.failed_cells != 0 || cold.degraded_cells != 0) {
      std::fprintf(stderr, "cold sweep not fully ok: %zu failed, %zu degraded\n",
                   cold.failed_cells, cold.degraded_cells);
      return false;
    }
    // Emptied, so an analysis in the warm run would show as memo misses.
    ptx::InstructionCounter::reset_memo();
    const std::uint64_t misses = ptx::InstructionCounter::memo_stats().misses;
    Stopwatch warm_watch;
    benchmark::DoNotOptimize(engine.run(request));
    warm_s = warm_watch.elapsed_seconds();
    if (ptx::InstructionCounter::memo_stats().misses != misses ||
        store.size() != zoo.size()) {
      std::fprintf(stderr,
                   "warm sweep missed the store: %zu of %zu topologies "
                   "stored\n",
                   store.size(), zoo.size());
      return false;
    }
  }
  const double speedup = warm_s > 0.0 ? naive_s / warm_s : 1e9;
  std::fprintf(
      stderr,
      "full zoo x %zu devices (%zu cells): naive per-pair %.2fs, warm "
      "sweep %.4fs — %.0fx\n",
      fleet.size(), n_cells, naive_s, warm_s, speedup);
  if (speedup < 10.0) {
    std::fprintf(stderr, "FAIL: warm sweep speedup %.1fx < 10x\n", speedup);
    return false;
  }

  // ---- restart: a fresh store over the same journal replays the
  // sweep with zero DCA — with the memo emptied, any analysis would
  // show as memo misses.
  ptx::InstructionCounter::reset_memo();
  const ptx::InstructionCounter::MemoStats before =
      ptx::InstructionCounter::memo_stats();
  registry::FeatureStore restarted(dir);
  dse::SweepEngine::Options options;
  options.store = &restarted;
  const dse::SweepEngine engine(estimator, options);
  const dse::SweepResult replay = engine.run(request);
  const ptx::InstructionCounter::MemoStats after =
      ptx::InstructionCounter::memo_stats();
  const std::uint64_t memo_misses = after.misses - before.misses;
  std::fprintf(
      stderr,
      "restart replay: %zu journal records recovered, %zu cells, %zu "
      "degraded, %llu dca_memo_misses\n",
      restarted.recovered_records(), replay.cells.size(),
      replay.degraded_cells, static_cast<unsigned long long>(memo_misses));
  if (memo_misses != 0 || restarted.recovered_records() != zoo.size() ||
      replay.cells.size() != n_cells || replay.degraded_cells != 0 ||
      replay.failed_cells != 0) {
    std::fprintf(stderr, "FAIL: restarted sweep did not replay from the store\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!verify_sweep_acceptance()) {
    std::fprintf(stderr, "FAIL: dse sweep acceptance checks\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
