#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "cnn/static_analyzer.hpp"
#include "cnn/zoo.hpp"
#include "common/mapped_buffer.hpp"
#include "core/dataset_builder.hpp"
#include "core/dse.hpp"
#include "gpu/device_db.hpp"
#include "registry/feature_store.hpp"

namespace gpuperf::serve {
namespace {

ServeOptions tiny_options() {
  ServeOptions options;
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  options.n_threads = 2;
  return options;
}

ServeSession& shared_session() {
  static ServeSession session(tiny_options());
  return session;
}

/// Pull a numeric field out of a flat JSON response.
double json_number(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = body.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << body;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

bool is_ok(const std::string& body) {
  return body.find("\"ok\":true") != std::string::npos;
}

TEST(ServeSession, PredictMatchesStandaloneEstimator) {
  // Same dataset, same seed, same regressor → bit-identical prediction.
  core::DatasetOptions dataset;
  dataset.models = tiny_options().train_models;
  core::PerformanceEstimator estimator("dt", 42);
  estimator.train(core::DatasetBuilder(dataset).build());
  const double expected =
      estimator.predict("alexnet", gpu::device("gtx1080ti"));

  EXPECT_DOUBLE_EQ(shared_session().predict("alexnet", "gtx1080ti"),
                   expected);
}

TEST(ServeSession, RepeatedPredictIsByteIdentical) {
  ServeSession& session = shared_session();
  const std::string first =
      session.handle_line("predict MobileNetV2 teslat4");
  const std::string second =
      session.handle_line("predict MobileNetV2 teslat4");
  ASSERT_TRUE(is_ok(first)) << first;
  EXPECT_EQ(second, first);
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
}

TEST(ServeSession, FeatureCacheHoldsTheWholeZoo) {
  // std::hash spreads the zoo names unevenly over the shards; every
  // shard still has room for all of them.
  ServeSession session(tiny_options());
  for (const cnn::zoo::ZooEntry& entry : cnn::zoo::all_models())
    session.predict(entry.name, "v100s");
  const CacheStats features = session.feature_cache_stats();
  EXPECT_EQ(features.evictions, 0u);
  EXPECT_EQ(features.size, 31u);
}

TEST(ServeSession, FeatureCacheSharedAcrossDevices) {
  ServeSession session(tiny_options());
  session.predict("alexnet", "gtx1080ti");
  const CacheStats after_first = session.feature_cache_stats();
  session.predict("alexnet", "v100s");  // same model, new device
  const CacheStats after_second = session.feature_cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_second.misses, 1u);  // DCA ran exactly once
  EXPECT_GT(after_second.hits, after_first.hits);
}

TEST(ServeSession, ConcurrentPredictsAreConsistentAndShareOneDca) {
  ServeSession session(tiny_options());
  const std::vector<std::string> devices = {"gtx1080ti", "v100s",
                                            "teslat4"};
  constexpr int kThreads = 9;
  std::vector<double> ipc(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ipc[t] = session.predict("mobilenet", devices[t % devices.size()]);
    });
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(ipc[t], 0.0);
    // Same (model, device) must agree regardless of arrival order.
    EXPECT_DOUBLE_EQ(ipc[t], ipc[t % devices.size()]);
  }
  const CacheStats features = session.feature_cache_stats();
  EXPECT_EQ(features.misses, 1u);  // single-flight DCA
}

TEST(ServeSession, AnalyzeMatchesStaticAnalyzer) {
  const std::string body =
      shared_session().handle_line("analyze MobileNetV2");
  ASSERT_TRUE(is_ok(body)) << body;
  const auto report =
      cnn::StaticAnalyzer().analyze(cnn::zoo::build("MobileNetV2"));
  EXPECT_EQ(static_cast<std::int64_t>(json_number(body, "trainable_params")),
            report.trainable_params);
  EXPECT_EQ(static_cast<std::int64_t>(json_number(body, "weighted_layers")),
            report.weighted_layers);
}

TEST(ServeSession, RankListsEveryDevice) {
  const std::string body = shared_session().handle_line("rank alexnet");
  ASSERT_TRUE(is_ok(body)) << body;
  for (const auto& device : gpu::device_database())
    EXPECT_NE(body.find("\"" + device.name + "\""), std::string::npos)
        << device.name;
  // Ranking is sorted by the throughput proxy, best first.
  const std::size_t first = body.find("\"throughput_proxy\":");
  ASSERT_NE(first, std::string::npos);
  double previous = json_number(body.substr(first), "throughput_proxy");
  for (std::size_t pos = body.find("\"throughput_proxy\":", first + 1);
       pos != std::string::npos;
       pos = body.find("\"throughput_proxy\":", pos + 1)) {
    const double value = json_number(body.substr(pos), "throughput_proxy");
    EXPECT_LE(value, previous + 1e-9);
    previous = value;
  }
}

TEST(ServeSession, CliRankerMatchesServerRank) {
  // `gpuperf rank`, the examples and the rank verb share one ranker:
  // the same device order and bit-identical IPCs.
  ServeSession& session = shared_session();
  const std::string body = session.handle_line("rank alexnet");
  ASSERT_TRUE(is_ok(body)) << body;
  const std::vector<core::DeviceRanking> ranking =
      core::DseExplorer(*session.estimator_ptr())
          .rank_devices(
              core::FeatureExtractor().compute(cnn::zoo::build("alexnet")),
              gpu::device_names());
  ASSERT_EQ(ranking.size(), gpu::device_database().size());
  std::size_t pos = 0;
  for (const core::DeviceRanking& row : ranking) {
    char ipc[32];
    std::snprintf(ipc, sizeof(ipc), "%.17g", row.predicted_ipc);
    const std::string entry =
        "{\"device\":\"" + row.device + "\",\"ipc\":" + ipc + ",";
    pos = body.find(entry, pos);
    ASSERT_NE(pos, std::string::npos)
        << entry << " missing or out of order in " << body;
  }
}

TEST(ServeSession, StatsReportsEndpointsAndCaches) {
  ServeSession& session = shared_session();
  session.handle_line("predict alexnet gtx1080ti");
  const std::string body = session.handle_line("stats");
  ASSERT_TRUE(is_ok(body)) << body;
  for (const char* field :
       {"\"endpoints\"", "\"predict\"", "\"p50_ms\"", "\"p95_ms\"",
        "\"caches\"", "\"features\"", "\"in_flight\"",
        "\"uptime_seconds\"", "\"regressor\""})
    EXPECT_NE(body.find(field), std::string::npos) << field;
  EXPECT_EQ(body.find("\"results\""), std::string::npos) << body;
  // Out-of-core graph counters are pre-registered, so they appear (at
  // least at zero) before any graph has ever spilled.
  for (const char* field : {"\"depgraph_csr_bytes\"", "\"dca_spill_files\"",
                            "\"dca_spill_bytes\""})
    EXPECT_NE(body.find(field), std::string::npos) << field;
}

TEST(ServeSession, SpillKnobsApplyBeforeAnyGraphIsBuilt) {
  // Regression: the knobs must hit the process-wide config while
  // `options_` initializes — a ServeSession member (FeatureExtractor's
  // InstructionCounter) builds the shared kernel-library graphs before
  // the constructor body runs, and those builds must already see the
  // requested budget.  Asserted here via the config round trip; the
  // ordering itself is pinned by the options_ initializer.
  const SpillConfig saved = dca_spill_config();
  ServeOptions options = tiny_options();
  options.dca_spill_dir = "/nonexistent-spill-dir";
  options.dca_spill_budget_bytes = 123456;
  ServeSession session(options);
  const SpillConfig applied = dca_spill_config();
  EXPECT_EQ(applied.dir, "/nonexistent-spill-dir");
  EXPECT_EQ(applied.resident_budget_bytes, 123456u);
  set_dca_spill_config(saved);
}

TEST(ServeSession, ErrorsAreResponsesNotExceptions) {
  ServeSession& session = shared_session();
  const std::string unknown_verb = session.handle_line("frobnicate");
  EXPECT_NE(unknown_verb.find("\"ok\":false"), std::string::npos);
  const std::string unknown_model =
      session.handle_line("predict notamodel gtx1080ti");
  EXPECT_NE(unknown_model.find("unknown model"), std::string::npos);
  const std::string unknown_device =
      session.handle_line("predict alexnet notadevice");
  EXPECT_NE(unknown_device.find("unknown device"), std::string::npos);
  const std::string missing_args = session.handle_line("predict");
  EXPECT_NE(missing_args.find("\"ok\":false"), std::string::npos);
  const std::string empty = session.handle_line("");
  EXPECT_NE(empty.find("\"ok\":false"), std::string::npos);
}

TEST(ServeSession, ShutdownVerbSignalsButResponds) {
  ServeSession session(tiny_options());
  const Response response = session.handle(parse_request("shutdown"));
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.shutdown_requested);
}

TEST(ServeSession, PingIsCheap) {
  const std::string body = shared_session().handle_line("ping");
  EXPECT_TRUE(is_ok(body)) << body;
}

TEST(ServeSession, ResetCachesForcesRecompute) {
  ServeSession session(tiny_options());
  session.predict("alexnet", "gtx1080ti");
  session.reset_caches();
  EXPECT_EQ(session.feature_cache_stats().size, 0u);
  session.predict("alexnet", "gtx1080ti");
  EXPECT_EQ(session.feature_cache_stats().misses, 2u);
}

TEST(ServeSession, DseVerbRanksTheFleet) {
  const std::string body = shared_session().handle_line(
      "dse alexnet,mobilenet --devices=gtx1080ti,gtx1060 --cells");
  ASSERT_TRUE(is_ok(body)) << body;
  EXPECT_NE(body.find("\"endpoint\":\"dse\""), std::string::npos);
  EXPECT_EQ(json_number(body, "unique_topologies"), 2.0);
  EXPECT_EQ(json_number(body, "failed_cells"), 0.0);
  for (const char* field :
       {"\"pareto\"", "\"recommendations\"", "\"score\"",
        "\"total_latency_ms\"", "\"peak_power_w\"", "\"cost_usd\"",
        "\"cells\"", "\"status\":\"ok\""})
    EXPECT_NE(body.find(field), std::string::npos) << field << " in " << body;
  for (const char* device : {"\"gtx1080ti\"", "\"gtx1060\""})
    EXPECT_NE(body.find(device), std::string::npos) << device;
}

TEST(ServeSession, DseDeduplicatesRepeatedModels) {
  const std::string body = shared_session().handle_line(
      "dse alexnet,alexnet --devices=gtx1060");
  ASSERT_TRUE(is_ok(body)) << body;
  EXPECT_EQ(json_number(body, "unique_topologies"), 1.0);
  EXPECT_EQ(json_number(body, "duplicate_models"), 1.0);
}

TEST(ServeSession, DseInfeasibleConstraintsAreTyped) {
  // Every device violates a 1 ns latency SLA: the sweep itself succeeds
  // but the verdict is a typed, non-retryable constraint_infeasible.
  const std::string body = shared_session().handle_line(
      "dse alexnet --devices=gtx1080ti,gtx1060 --max-latency-ms=1e-9");
  EXPECT_NE(body.find("\"ok\":false"), std::string::npos) << body;
  EXPECT_NE(body.find("\"code\":\"constraint_infeasible\""),
            std::string::npos)
      << body;
}

TEST(ServeSession, DseValidatesModelsAndDevices) {
  ServeSession& session = shared_session();
  EXPECT_NE(session.handle_line("dse notamodel").find("unknown model"),
            std::string::npos);
  EXPECT_NE(session.handle_line("dse alexnet --devices=notadevice")
                .find("unknown device"),
            std::string::npos);
  EXPECT_NE(session.handle_line("dse").find("\"ok\":false"),
            std::string::npos);
}

TEST(ServeSession, DseRejectsARepeatedDevice) {
  // One device twice used to answer a nameless ghost recommendation.
  const std::string body = shared_session().handle_line(
      "dse alexnet --devices=v100s,v100s");
  EXPECT_NE(body.find("\"code\":\"invalid_request\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("device 'v100s' is listed twice"), std::string::npos)
      << body;
}

TEST(ServeSession, DseRejectsNegativeOrNonFiniteConstraints) {
  for (const char* flag :
       {"--w-latency=nan", "--w-power=inf", "--max-latency-ms=-1",
        "--max-cost-usd=nan", "--w-cost=-inf", "--max-power-w=-0.5"}) {
    const std::string body = shared_session().handle_line(
        std::string("dse alexnet --devices=gtx1060,v100s ") + flag);
    EXPECT_NE(body.find("\"code\":\"invalid_request\""), std::string::npos)
        << flag << ": " << body;
    EXPECT_NE(body.find("must be finite and non-negative"), std::string::npos)
        << flag << ": " << body;
  }
}

/// A dse body from its "pareto" field on: the answer without the
/// telemetry fields before it.
std::string dse_answer(const std::string& body) {
  const std::size_t pos = body.find("\"pareto\":");
  EXPECT_NE(pos, std::string::npos) << body;
  return pos == std::string::npos ? body : body.substr(pos);
}

TEST(ServeSession, DseFeatureStorePersistsAcrossRestart) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_session_dse_store")
          .string();
  std::filesystem::remove_all(dir);
  ServeOptions options = tiny_options();
  options.feature_store_dir = dir;
  const std::string command = "dse alexnet,vgg16 --devices=gtx1060,teslat4";
  std::string cold;
  {
    ServeSession session(options);
    cold = session.handle_line(command);
    ASSERT_TRUE(is_ok(cold)) << cold;
    EXPECT_EQ(session.dca_compute_count(), 2u);
  }
  // A restarted session answers the sweep from the persistent feature
  // store: zero DCA passes, the same answer, every cell predicted anew.
  ServeSession restarted(options);
  const std::string warm = restarted.handle_line(command);
  ASSERT_TRUE(is_ok(warm)) << warm;
  EXPECT_EQ(restarted.dca_compute_count(), 0u);
  EXPECT_EQ(restarted.feature_store_hit_count(), 2u);
  EXPECT_EQ(json_number(warm, "sweep_cache_hits"), 0.0);
  EXPECT_EQ(json_number(warm, "features_computed"), 2.0);
  EXPECT_EQ(dse_answer(warm), dse_answer(cold));
}

TEST(ServeSession, DseSessionHashSourceMatchesTheEngineDefault) {
  // A standalone engine builds and hashes each model; the session plans
  // from its name → hash memo instead.  Both must key the same store
  // entries, or the session would miss everything the engine persisted.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_session_dse_hash")
          .string();
  std::filesystem::remove_all(dir);
  dse::SweepRequest request;
  request.models = {"alexnet", "mobilenet", "alexnet"};
  request.devices = {"gtx1060", "teslat4"};
  dse::SweepResult engine_result;
  {
    registry::FeatureStore store(dir);
    dse::SweepEngine::Options options;
    options.store = &store;
    engine_result =
        dse::SweepEngine(shared_session().estimator(), options).run(request);
    ASSERT_EQ(engine_result.failed_cells, 0u);
    EXPECT_EQ(engine_result.duplicate_models, 1u);
    EXPECT_EQ(store.size(), 2u);
  }
  ServeOptions options = tiny_options();
  options.feature_store_dir = dir;
  ServeSession session(options);
  const dse::SweepResult result = session.sweep(request);
  EXPECT_EQ(result.features_computed, 2u);
  EXPECT_EQ(session.dca_compute_count(), 0u);
  EXPECT_EQ(session.feature_store_hit_count(), 2u);
  EXPECT_EQ(result.unique_topologies, engine_result.unique_topologies);
  EXPECT_EQ(result.duplicate_models, engine_result.duplicate_models);
  ASSERT_EQ(result.cells.size(), engine_result.cells.size());
  for (std::size_t c = 0; c < result.cells.size(); ++c)
    EXPECT_EQ(result.cells[c].predicted_ipc,
              engine_result.cells[c].predicted_ipc);
}

}  // namespace
}  // namespace gpuperf::serve
