// Heap-allocation guard for a warm `dse`.  A prediction reads its
// feature row from the stack, so it allocates nothing for the tree,
// linear, forest and boosting models; a sweep whose topologies the
// feature cache already holds pays a fixed handful of blocks (the plan,
// the flat value table, the cells, the summaries), not one per cell.  A
// replaced global operator new counts every allocation of this process,
// which is why the guard has a test binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/features.hpp"
#include "dse/sweep.hpp"
#include "gpu/device_db.hpp"
#include "ml/dataset.hpp"
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

namespace gpuperf {
namespace {

/// A dataset in the estimator's schema: enough rows for every
/// regressor (least squares needs more rows than features).
ml::Dataset synthetic_dataset() {
  ml::Dataset data(core::FeatureExtractor::feature_names(), "ipc");
  Rng rng(7);
  for (int i = 0; i < 48; ++i) {
    std::vector<double> row;
    for (std::size_t f = 0; f < data.n_features(); ++f)
      row.push_back(rng.uniform(1.0, 1000.0));
    data.add_row(row, rng.uniform(0.1, 2.0));
  }
  return data;
}

TEST(DseAllocGuard, PredictFromFeaturesAllocatesNothing) {
  const ml::Dataset data = synthetic_dataset();
  core::ModelFeatures features;
  features.executed_instructions = 123456789;
  features.trainable_params = 4567890;
  const std::vector<gpu::DeviceSpec>& devices = gpu::device_database();
  for (const char* id : {"dt", "linear", "rf", "xgb"}) {
    core::PerformanceEstimator estimator(id, 42);
    estimator.train(data);
    double sink = 0.0;
    const std::uint64_t before = g_allocations.load();
    for (const gpu::DeviceSpec& device : devices)
      sink += estimator.predict(features, device);
    EXPECT_EQ(g_allocations.load() - before, 0u) << id;
    EXPECT_EQ(sink, sink) << id;  // keeps the loop alive
  }
}

TEST(DseAllocGuard, ProbeWarmSweepAllocationsDoNotGrowWithItsCells) {
  serve::ServeOptions options;
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  options.n_threads = 1;
  serve::ServeSession session(options);
  const std::vector<std::string> models = {
      "alexnet",     "vgg16",          "mobilenet", "resnet50v2",
      "densenet121", "MobileNetV2",    "efficientnetb0", "vgg16"};
  // The feature cache holds every topology: the probe answers them all.
  dse::SweepRequest warm_up;
  warm_up.models = models;
  ASSERT_EQ(session.sweep(warm_up).features_computed, 7u);

  const std::vector<std::string>& fleet = gpu::dse_devices();
  for (const std::size_t n_devices : {1u, 3u, 7u}) {
    dse::SweepRequest request;
    request.models = models;
    request.devices.assign(fleet.begin(), fleet.begin() + n_devices);
    request.constraints.max_latency_ms = 1000.0;
    request.constraints.w_power = 0.5;
    (void)session.sweep(request);  // the session's memos are warm
    const std::uint64_t before = g_allocations.load();
    const dse::SweepResult result = session.sweep(request);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_EQ(result.cells.size(), models.size() * n_devices);
    EXPECT_EQ(result.features_computed, 7u);
    EXPECT_LE(allocations, 24u) << n_devices << " devices";
  }
}

}  // namespace
}  // namespace gpuperf
