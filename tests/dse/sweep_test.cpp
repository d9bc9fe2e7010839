#include "dse/sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset_builder.hpp"
#include "core/estimator.hpp"
#include "gpu/device_db.hpp"
#include "ptx/counter.hpp"
#include "registry/feature_store.hpp"

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

using FeaturePtr = std::shared_ptr<const core::ModelFeatures>;
using FeatureMap = std::map<std::string, FeaturePtr>;

/// Full-DCA features of each model, as a feature cache would hold them.
FeatureMap features_of(const std::vector<std::string>& models) {
  const core::FeatureExtractor extractor;
  FeatureMap out;
  for (const std::string& model : models)
    if (!out.count(model))
      out.emplace(model, std::make_shared<const core::ModelFeatures>(
                             extractor.compute(cnn::zoo::build(model))));
  return out;
}

/// A probe-less engine whose feature source serves `features`.
SweepResult sweep_without_probe(const SweepRequest& request,
                                const FeatureMap& features) {
  SweepEngine::Options options;
  options.feature_source = [&features](const std::string& model,
                                       const Deadline&) {
    return features.at(model);
  };
  return SweepEngine(trained_estimator(), std::move(options)).run(request);
}

/// A feature source for engines whose every topology is held.
FeaturePtr never_called(const std::string& model, const Deadline&) {
  ADD_FAILURE() << "feature source called for held model " << model;
  return nullptr;
}

void expect_same_cells(const SweepResult& actual,
                       const SweepResult& expected) {
  ASSERT_EQ(actual.cells.size(), expected.cells.size());
  for (std::size_t c = 0; c < expected.cells.size(); ++c) {
    EXPECT_EQ(actual.cells[c].model, expected.cells[c].model);
    EXPECT_EQ(actual.cells[c].device, expected.cells[c].device);
    EXPECT_EQ(actual.cells[c].status, expected.cells[c].status);
    EXPECT_EQ(actual.cells[c].predicted_ipc,
              expected.cells[c].predicted_ipc);
    EXPECT_EQ(actual.cells[c].latency_ms, expected.cells[c].latency_ms);
    EXPECT_EQ(actual.cells[c].power_w, expected.cells[c].power_w);
  }
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

TEST(SweepEngine, FeatureStoreReplaysWithZeroDca) {
  const std::string dir = temp_dir("replay");
  const SweepRequest request = small_request();
  SweepResult cold;
  {
    registry::FeatureStore store(dir);
    SweepEngine::Options options;
    options.store = &store;
    cold = SweepEngine(trained_estimator(), options).run(request);
    EXPECT_EQ(cold.features_computed, 2u);
    EXPECT_EQ(store.size(), 2u);
  }
  // "Restart": a fresh store object replays the journal from disk, and
  // with the DCA memo emptied any analysis would show as memo misses.
  registry::FeatureStore reopened(dir);
  EXPECT_EQ(reopened.recovered_records(), 2u);
  SweepEngine::Options options;
  options.store = &reopened;
  ptx::InstructionCounter::reset_memo();
  const std::uint64_t misses_before =
      ptx::InstructionCounter::memo_stats().misses;
  const SweepResult warm =
      SweepEngine(trained_estimator(), options).run(request);
  EXPECT_EQ(ptx::InstructionCounter::memo_stats().misses, misses_before);
  EXPECT_EQ(warm.features_computed, 2u);
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t c = 0; c < cold.cells.size(); ++c) {
    EXPECT_EQ(warm.cells[c].status, CellStatus::kOk);
    EXPECT_EQ(warm.cells[c].predicted_ipc, cold.cells[c].predicted_ipc);
    EXPECT_EQ(warm.cells[c].latency_ms, cold.cells[c].latency_ms);
    EXPECT_EQ(warm.cells[c].power_w, cold.cells[c].power_w);
  }
}

TEST(SweepEngine, CachedTopologiesNeedNoPoolWorker) {
  SweepRequest request;
  request.models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  const FeatureMap features = features_of(request.models);
  const SweepResult reference = sweep_without_probe(request, features);

  // Both workers of the engine's pool are held until the sweep is done
  // (or has failed to finish): a sweep that queued work would wait.
  ThreadPool pool(2);
  std::promise<void> gate;
  const std::shared_future<void> opened = gate.get_future().share();
  for (std::size_t w = 0; w < pool.size(); ++w)
    pool.submit([opened] { opened.wait(); });

  SweepEngine::Options options;
  options.pool = &pool;
  options.probe = [&features](const std::string& model) {
    return features.at(model);
  };
  options.feature_source = never_called;
  const SweepEngine engine(trained_estimator(), std::move(options));
  std::future<SweepResult> sweep =
      std::async(std::launch::async, [&] { return engine.run(request); });
  const bool finished = sweep.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  gate.set_value();
  EXPECT_TRUE(finished) << "an all-hit sweep waited for a pool worker";
  const SweepResult result = sweep.get();
  pool.wait();

  expect_same_cells(result, reference);
  EXPECT_EQ(result.features_computed, request.models.size());
}

TEST(SweepEngine, OnlyProbeMissesReachTheFeatureSource) {
  SweepRequest request;
  request.models = {"alexnet", "mobilenet", "MobileNetV2",
                    "vgg16",   "alexnet",   "mobilenet"};
  const FeatureMap features = features_of(request.models);
  const SweepResult reference = sweep_without_probe(request, features);

  const std::set<std::string> held = {"alexnet", "MobileNetV2"};
  std::mutex mutex;
  std::map<std::string, int> calls;
  SweepEngine::Options options;
  options.probe = [&](const std::string& model) -> FeaturePtr {
    return held.count(model) ? features.at(model) : nullptr;
  };
  options.feature_source = [&](const std::string& model, const Deadline&) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++calls[model];
    return features.at(model);
  };
  const SweepResult result =
      SweepEngine(trained_estimator(), std::move(options)).run(request);

  // Once per missed topology, never for a held one.
  EXPECT_EQ(calls, (std::map<std::string, int>{{"mobilenet", 1},
                                               {"vgg16", 1}}));
  expect_same_cells(result, reference);
  EXPECT_EQ(result.unique_topologies, 4u);
  EXPECT_EQ(result.features_computed, result.unique_topologies);
}

/// The CheckError message of `run(request)`, or "" when it answers.
std::string run_error(const SweepRequest& request) {
  try {
    (void)SweepEngine(trained_estimator()).run(request);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(SweepValidation, RejectsARepeatedDevice) {
  SweepRequest request = small_request();
  request.models = {"alexnet"};
  request.devices = {"v100s", "gtx1060", "v100s"};
  const std::string error = run_error(request);
  EXPECT_NE(error.find("device 'v100s' is listed twice"), std::string::npos)
      << error;
}

TEST(SweepValidation, RejectsNegativeOrNonFiniteConstraints) {
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0};
  const std::pair<const char*, double Constraints::*> kFields[] = {
      {"max_latency_ms", &Constraints::max_latency_ms},
      {"max_power_w", &Constraints::max_power_w},
      {"max_cost_usd", &Constraints::max_cost_usd},
      {"w_latency", &Constraints::w_latency},
      {"w_power", &Constraints::w_power},
      {"w_cost", &Constraints::w_cost},
  };
  for (const auto& [name, field] : kFields)
    for (const double bad : kBad) {
      SweepRequest request = small_request();
      request.constraints.*field = bad;
      const std::string error = run_error(request);
      EXPECT_NE(error.find(std::string("constraint ") + name),
                std::string::npos)
          << name << "=" << bad << ": " << error;
    }
  // Zero bounds and weights stay valid ("unconstrained", "unweighted").
  SweepRequest zeros = small_request();
  zeros.constraints.w_latency = 0.0;
  EXPECT_EQ(run_error(zeros), "");
}

TEST(SweepValidation, UnknownNamesAreNamedPlainly) {
  SweepRequest bad_model = small_request();
  bad_model.models.push_back("not-a-model");
  EXPECT_EQ(run_error(bad_model), "unknown model 'not-a-model'");
  SweepRequest bad_device = small_request();
  bad_device.devices.push_back("not-a-device");
  EXPECT_EQ(run_error(bad_device), "unknown device 'not-a-device'");
}

TEST(SweepValidation, SummariesRejectARepeatedDeviceOrder) {
  SweepCell cell;
  cell.model = "m";
  cell.device = "a";
  cell.status = CellStatus::kOk;
  const std::vector<std::string> order = {"a", "b", "a"};
  EXPECT_THROW(summarize_cells({cell}, order, {}, Constraints{}), CheckError);
}

TEST(SweepValidation, CellsViewTheStaticNames) {
  // The cells outlive the request: their names are the zoo's and the
  // device table's, not copies of the request's strings.
  SweepResult result;
  {
    SweepRequest request = small_request();
    result = SweepEngine(trained_estimator()).run(request);
  }
  ASSERT_EQ(result.cells.size(), 6u);
  for (const SweepCell& cell : result.cells) {
    const cnn::zoo::ZooEntry* entry = cnn::zoo::find(cell.model);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(cell.model.data(), entry->name.data());
    const gpu::DeviceSpec* device = gpu::find_device(cell.device);
    ASSERT_NE(device, nullptr);
    EXPECT_EQ(cell.device.data(), device->name.data());
  }
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

TEST(SweepChaos, FaultOnAHeldTopologyDegradesItsCellsOnly) {
  const SweepRequest request = small_request();
  const FeatureMap features = features_of(request.models);
  SweepEngine::Options options;
  options.probe = [&features](const std::string& model) {
    return features.at(model);
  };
  options.feature_source = never_called;
  const SweepEngine engine(trained_estimator(), std::move(options));
  {
    // The site fires once per topology, held or not.
    fault::ScopedFault pass("dse.features", {fault::Action::kDelay, 0, -1});
    const SweepResult result = engine.run(request);
    EXPECT_EQ(fault::hits("dse.features"), request.models.size());
    EXPECT_EQ(result.degraded_cells, 0u);
  }
  fault::ScopedFault fault("dse.features", {fault::Action::kThrow, 0, 1});
  const SweepResult result = engine.run(request);
  EXPECT_EQ(result.failed_cells, 0u);
  EXPECT_EQ(result.degraded_cells, request.devices.size());
  EXPECT_EQ(result.features_computed, 1u);
  // Held topologies are answered in topology order, so the first one
  // takes the fault and only its row degrades.
  for (const SweepCell& cell : result.cells) {
    EXPECT_EQ(cell.status, cell.model == request.models.front()
                               ? CellStatus::kDegraded
                               : CellStatus::kOk);
    EXPECT_GT(cell.predicted_ipc, 0.0);
  }
  EXPECT_TRUE(result.feasible());
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

TEST(SweepChaos, DegradedCellsNeverEnterTheStore) {
  const std::string dir = temp_dir("chaos_store");
  registry::FeatureStore store(dir);
  SweepEngine::Options options;
  options.store = &store;
  const SweepEngine engine(trained_estimator(), options);
  SweepRequest request = small_request();
  request.models = {"alexnet"};
  {
    fault::ScopedFault fault("dse.features",
                             {fault::Action::kThrow, 0, 1});
    const SweepResult degraded = engine.run(request);
    EXPECT_EQ(degraded.degraded_cells, request.devices.size());
  }
  // The fallback features were not persisted: the healthy re-run misses
  // the store and computes real features.
  EXPECT_EQ(store.size(), 0u);
  const SweepResult healthy = engine.run(request);
  EXPECT_EQ(healthy.degraded_cells, 0u);
  EXPECT_EQ(healthy.features_computed, 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SweepChaos, StoreFaultsNeverFailACell) {
  const std::string dir = temp_dir("chaos_store_io");
  registry::FeatureStore store(dir);
  SweepEngine::Options options;
  options.store = &store;
  const SweepEngine engine(trained_estimator(), options);
  // A dead volume: every read and every write throws.  The reads count
  // as misses, the features are computed, and the cells are ok.
  fault::ScopedFault read("store.get", {fault::Action::kThrow, 0, -1});
  fault::ScopedFault write("store.put", {fault::Action::kThrow, 0, -1});
  const SweepResult result = engine.run(small_request());
  EXPECT_EQ(result.degraded_cells, 0u);
  EXPECT_EQ(result.failed_cells, 0u);
  EXPECT_EQ(result.features_computed, 2u);
  EXPECT_EQ(fault::hits("store.get"), 2u);
  EXPECT_EQ(fault::hits("store.put"), 2u);
  EXPECT_EQ(store.size(), 0u);
}

#endif  // GPUPERF_FAULT_INJECTION

}  // namespace
}  // namespace gpuperf::dse
