#include "dse/sweep.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/subprocess.hpp"
#include "core/dataset_builder.hpp"
#include "core/estimator.hpp"
#include "dse/sweep_cache.hpp"
#include "gpu/device_db.hpp"

namespace gpuperf::dse {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("gpuperf_dse_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

const core::PerformanceEstimator& trained_estimator() {
  static const core::PerformanceEstimator* est = [] {
    core::DatasetOptions o;
    o.models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
    o.devices = {"gtx1080ti", "v100s"};
    auto* e = new core::PerformanceEstimator("dt", 42);
    e->train(core::DatasetBuilder(o).build());
    return e;
  }();
  return *est;
}

SweepRequest small_request() {
  SweepRequest request;
  request.models = {"alexnet", "mobilenet"};
  request.devices = {"gtx1080ti", "gtx1060", "teslat4"};
  return request;
}

TEST(SweepEngine, CrossProductIsModelMajorAndComplete) {
  const SweepEngine engine(trained_estimator());
  const SweepRequest request = small_request();
  const SweepResult result = engine.run(request);
  ASSERT_EQ(result.cells.size(), 6u);
  for (std::size_t mi = 0; mi < request.models.size(); ++mi) {
    for (std::size_t di = 0; di < request.devices.size(); ++di) {
      const SweepCell& cell = result.cells[mi * request.devices.size() + di];
      EXPECT_EQ(cell.model, request.models[mi]);
      EXPECT_EQ(cell.device, request.devices[di]);
      EXPECT_EQ(cell.status, CellStatus::kOk);
      EXPECT_FALSE(cell.cached);
      EXPECT_GT(cell.predicted_ipc, 0.0);
      EXPECT_GT(cell.latency_ms, 0.0);
      EXPECT_GT(cell.power_w, 0.0);
    }
  }
  EXPECT_EQ(result.unique_topologies, 2u);
  EXPECT_EQ(result.duplicate_models, 0u);
  EXPECT_EQ(result.features_computed, 2u);
  EXPECT_EQ(result.ranking.size(), 3u);
  EXPECT_FALSE(result.pareto.empty());
  EXPECT_TRUE(result.feasible());
}

TEST(SweepEngine, DuplicateModelsShareOneTopology) {
  const SweepEngine engine(trained_estimator());
  SweepRequest request = small_request();
  request.models = {"alexnet", "mobilenet", "alexnet"};
  const SweepResult result = engine.run(request);
  EXPECT_EQ(result.cells.size(), 9u);
  EXPECT_EQ(result.unique_topologies, 2u);
  EXPECT_EQ(result.duplicate_models, 1u);
  EXPECT_EQ(result.features_computed, 2u);
  // The duplicate's cells are copies of the representative's.
  for (std::size_t di = 0; di < request.devices.size(); ++di) {
    EXPECT_DOUBLE_EQ(result.cells[di].predicted_ipc,
                     result.cells[6 + di].predicted_ipc);
    EXPECT_DOUBLE_EQ(result.cells[di].latency_ms,
                     result.cells[6 + di].latency_ms);
  }
}

TEST(SweepEngine, RepeatedParallelSweepsRankDeterministically) {
  const SweepEngine engine(trained_estimator());
  SweepRequest request;
  request.models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  // Full seven-device fleet → seven parallel jobs racing on the pool.
  const SweepResult first = engine.run(request);
  for (int i = 0; i < 3; ++i) {
    const SweepResult repeat = engine.run(request);
    ASSERT_EQ(repeat.cells.size(), first.cells.size());
    for (std::size_t c = 0; c < first.cells.size(); ++c) {
      EXPECT_EQ(repeat.cells[c].model, first.cells[c].model);
      EXPECT_EQ(repeat.cells[c].device, first.cells[c].device);
      EXPECT_DOUBLE_EQ(repeat.cells[c].predicted_ipc,
                       first.cells[c].predicted_ipc);
    }
    ASSERT_EQ(repeat.ranking.size(), first.ranking.size());
    for (std::size_t r = 0; r < first.ranking.size(); ++r) {
      EXPECT_EQ(repeat.ranking[r].device, first.ranking[r].device);
      EXPECT_DOUBLE_EQ(repeat.ranking[r].score, first.ranking[r].score);
      EXPECT_EQ(repeat.ranking[r].pareto, first.ranking[r].pareto);
    }
    EXPECT_EQ(repeat.pareto, first.pareto);
  }
}

TEST(SweepEngine, RejectsBadInput) {
  const SweepEngine engine(trained_estimator());
  SweepRequest empty;
  EXPECT_THROW(engine.run(empty), CheckError);
  SweepRequest bad_model = small_request();
  bad_model.models.push_back("not-a-model");
  EXPECT_THROW(engine.run(bad_model), CheckError);
  SweepRequest bad_device = small_request();
  bad_device.devices.push_back("not-a-device");
  EXPECT_THROW(engine.run(bad_device), CheckError);
  core::PerformanceEstimator untrained("dt", 1);
  EXPECT_THROW(SweepEngine{untrained}, CheckError);
}

TEST(SweepEngine, PersistentCacheReplaysWithZeroFeaturePasses) {
  const std::string dir = temp_dir("replay");
  const SweepRequest request = small_request();
  SweepResult cold;
  std::string bundle_key;
  {
    SweepCache cache(dir);
    SweepEngine::Options options;
    options.cache = &cache;
    const SweepEngine engine(trained_estimator(), options);
    bundle_key = engine.bundle_key();
    cold = engine.run(request);
    EXPECT_EQ(cold.features_computed, 2u);
    EXPECT_EQ(cold.sweep_cache_hits, 0u);
    EXPECT_EQ(cache.size(), 6u);
  }
  // "Restart": a fresh cache object replays the journal from disk.
  SweepCache reopened(dir);
  EXPECT_EQ(reopened.recovered_records(), 6u);
  SweepEngine::Options options;
  options.cache = &reopened;
  options.bundle_key = bundle_key;
  const SweepEngine engine(trained_estimator(), options);
  const SweepResult warm = engine.run(request);
  EXPECT_EQ(warm.features_computed, 0u);
  EXPECT_EQ(warm.sweep_cache_hits, 6u);
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t c = 0; c < cold.cells.size(); ++c) {
    EXPECT_TRUE(warm.cells[c].cached);
    EXPECT_DOUBLE_EQ(warm.cells[c].predicted_ipc,
                     cold.cells[c].predicted_ipc);
    EXPECT_DOUBLE_EQ(warm.cells[c].latency_ms, cold.cells[c].latency_ms);
    EXPECT_DOUBLE_EQ(warm.cells[c].power_w, cold.cells[c].power_w);
  }
}

TEST(SweepEngine, DifferentBundleKeyNeverSharesCacheEntries) {
  const std::string dir = temp_dir("bundle_key");
  SweepCache cache(dir);
  const SweepRequest request = small_request();
  SweepEngine::Options a;
  a.cache = &cache;
  a.bundle_key = "v0001";
  EXPECT_EQ(SweepEngine(trained_estimator(), a).run(request)
                .sweep_cache_hits,
            0u);
  SweepEngine::Options b;
  b.cache = &cache;
  b.bundle_key = "v0002";
  const SweepResult other =
      SweepEngine(trained_estimator(), b).run(request);
  // Same cache, different estimator identity: all misses, recomputed.
  EXPECT_EQ(other.sweep_cache_hits, 0u);
  EXPECT_EQ(other.features_computed, 2u);
  EXPECT_EQ(cache.size(), 12u);
}

TEST(SweepEngine, BundleKeyIsRegistryVersionOrContentHash) {
  EXPECT_EQ(make_bundle_key(trained_estimator(), "v0042"), "v0042");
  const std::string adhoc = make_bundle_key(trained_estimator(), "");
  EXPECT_EQ(adhoc.rfind("adhoc-", 0), 0u) << adhoc;
  // Deterministic: same estimator content, same key.
  EXPECT_EQ(make_bundle_key(trained_estimator(), ""), adhoc);
  const SweepEngine engine(trained_estimator());
  EXPECT_EQ(engine.bundle_key(), adhoc);
}

TEST(SweepCache, PutGetRoundTripAndCounters) {
  const std::string dir = temp_dir("cache_unit");
  SweepCache cache(dir);
  const std::string key = SweepCache::cell_key(0x1234u, "gtx1060", "v1");
  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.put(key, {1.5, 2.5, 90.0});
  const auto hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->predicted_ipc, 1.5);
  EXPECT_DOUBLE_EQ(hit->latency_ms, 2.5);
  EXPECT_DOUBLE_EQ(hit->power_w, 90.0);
  EXPECT_EQ(cache.hits(), 1u);
  // Last writer wins, in memory and across a reopen.
  cache.put(key, {3.0, 4.0, 95.0});
  EXPECT_EQ(cache.size(), 1u);
  SweepCache reopened(dir);
  // Two append records on disk, one key after last-writer-wins replay.
  EXPECT_EQ(reopened.recovered_records(), 2u);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_DOUBLE_EQ(reopened.get(key)->predicted_ipc, 3.0);
}

TEST(SweepCache, FailedPutDoesNotBuryLaterPuts) {
  const std::string dir = temp_dir("cache_failed_put");
  const std::string a = SweepCache::cell_key(0xa, "gtx1060", "v1");
  const std::string b = SweepCache::cell_key(0xb, "gtx1060", "v1");
  const std::string c = SweepCache::cell_key(0xc, "gtx1060", "v1");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In a child, so the file-size cap never reaches this process.
    SweepCache cache(dir);
    cache.put(a, {1.5, 2.5, 90.0});
    ::signal(SIGXFSZ, SIG_IGN);
    rlimit saved{};
    ::getrlimit(RLIMIT_FSIZE, &saved);
    rlimit cap = saved;
    cap.rlim_cur = fs::file_size(cache.journal_path()) + 40;
    ::setrlimit(RLIMIT_FSIZE, &cap);  // put B dies 40 bytes in
    bool threw = false;
    try {
      cache.put(b, {1.5, 2.5, 90.0});
    } catch (const CheckError&) {
      threw = true;
    }
    ::setrlimit(RLIMIT_FSIZE, &saved);
    cache.put(c, {1.5, 2.5, 90.0});  // acknowledged
    ::_exit(threw ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid_retry(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << describe_wait_status(status);

  SweepCache cache(dir);
  EXPECT_EQ(cache.recovered_records(), 2u);
  EXPECT_EQ(cache.torn_tail_bytes(), 0u);
  EXPECT_NE(cache.get(a), nullptr);
  EXPECT_EQ(cache.get(b), nullptr);
  EXPECT_NE(cache.get(c), nullptr);
}

TEST(SweepCache, KeySeparatesTopologyDeviceAndBundle) {
  const std::string base = SweepCache::cell_key(1, "a", "v1");
  EXPECT_NE(base, SweepCache::cell_key(2, "a", "v1"));
  EXPECT_NE(base, SweepCache::cell_key(1, "b", "v1"));
  EXPECT_NE(base, SweepCache::cell_key(1, "a", "v2"));
}

#ifdef GPUPERF_FAULT_INJECTION

TEST(SweepChaos, FaultedTopologyDegradesItsCellsOnly) {
  const SweepEngine engine(trained_estimator());
  SweepRequest request = small_request();
  // Kill DCA feature acquisition for exactly one of the two topologies;
  // which one loses the race is scheduling-dependent, the contract is
  // not: one model's row degrades, the other stays ok, nothing fails.
  fault::ScopedFault fault("dse.features",
                           {fault::Action::kThrow, 0, 1});
  const SweepResult result = engine.run(request);
  EXPECT_EQ(result.failed_cells, 0u);
  EXPECT_EQ(result.degraded_cells, request.devices.size());
  for (const std::string& model : request.models) {
    CellStatus status = CellStatus::kFailed;
    for (const SweepCell& cell : result.cells) {
      if (cell.model != model) continue;
      if (status == CellStatus::kFailed) status = cell.status;
      // Every cell of one model shares the fate of its one DCA pass.
      EXPECT_EQ(cell.status, status);
      EXPECT_GT(cell.predicted_ipc, 0.0);
    }
  }
  // Degraded cells still rank — the sweep stays feasible and every
  // device reports exactly one degraded cell.
  EXPECT_TRUE(result.feasible());
  for (const DeviceSummary& s : result.ranking) {
    EXPECT_TRUE(s.feasible);
    EXPECT_EQ(s.cells_ok, 1);
    EXPECT_EQ(s.cells_degraded, 1);
  }
}

TEST(SweepChaos, NoDegradeTurnsFaultIntoFailedCells) {
  const SweepEngine engine(trained_estimator());
  SweepRequest request = small_request();
  request.allow_degrade = false;
  fault::ScopedFault fault("dse.features",
                           {fault::Action::kThrow, 0, 1});
  const SweepResult result = engine.run(request);
  EXPECT_EQ(result.degraded_cells, 0u);
  EXPECT_EQ(result.failed_cells, request.devices.size());
  std::size_t with_error = 0;
  for (const SweepCell& cell : result.cells)
    if (cell.status == CellStatus::kFailed) {
      EXPECT_FALSE(cell.error.empty());
      ++with_error;
    }
  EXPECT_EQ(with_error, request.devices.size());
  // One failed model poisons every device → nothing is feasible.
  EXPECT_FALSE(result.feasible());
  for (const DeviceSummary& s : result.ranking)
    EXPECT_EQ(s.infeasible_reason, "incomplete (failed cells)");
}

TEST(SweepChaos, DegradedCellsNeverEnterTheCache) {
  const std::string dir = temp_dir("chaos_cache");
  SweepCache cache(dir);
  SweepEngine::Options options;
  options.cache = &cache;
  const SweepEngine engine(trained_estimator(), options);
  SweepRequest request = small_request();
  request.models = {"alexnet"};
  {
    fault::ScopedFault fault("dse.features",
                             {fault::Action::kThrow, 0, 1});
    const SweepResult degraded = engine.run(request);
    EXPECT_EQ(degraded.degraded_cells, request.devices.size());
  }
  // The fallback answers were not persisted: the healthy re-run misses
  // the cache and computes real features.
  EXPECT_EQ(cache.size(), 0u);
  const SweepResult healthy = engine.run(request);
  EXPECT_EQ(healthy.sweep_cache_hits, 0u);
  EXPECT_EQ(healthy.features_computed, 1u);
  EXPECT_EQ(cache.size(), request.devices.size());
}

#endif  // GPUPERF_FAULT_INJECTION

}  // namespace
}  // namespace gpuperf::dse
