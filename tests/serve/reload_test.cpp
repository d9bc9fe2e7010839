// Hot-reload, model_info and persistent feature store: the serve-side
// half of the registry subsystem (docs/REGISTRY.md).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cnn/zoo.hpp"
#include "common/fault.hpp"
#include "core/dataset_builder.hpp"
#include "core/features.hpp"
#include "gpu/device_db.hpp"
#include "registry/registry.hpp"
#include "serve/session.hpp"

namespace fs = std::filesystem;

namespace gpuperf::serve {
namespace {

const std::vector<std::string> kTinyModels = {"alexnet", "mobilenet",
                                              "MobileNetV2", "vgg16"};

const ml::Dataset& tiny_dataset() {
  static const ml::Dataset data = [] {
    core::DatasetOptions o;
    o.models = kTinyModels;
    return core::DatasetBuilder(o).build();
  }();
  return data;
}

/// A registry holding two bundles: v0001 is a decision tree, v0002 a
/// k-NN model (distinguishable via model_info's "regressor").
const std::string& two_bundle_registry() {
  static const std::string root = [] {
    const std::string dir = ::testing::TempDir() + "/gpuperf_reload_reg";
    fs::remove_all(dir);
    registry::ModelRegistry reg(dir);
    core::PerformanceEstimator dt("dt", 42);
    dt.train(tiny_dataset());
    registry::Manifest m1;
    m1.cv_folds = 5;
    m1.cv_mape = 10.0;
    reg.publish(dt, m1);
    core::PerformanceEstimator second("knn", 42);
    second.train(tiny_dataset());
    registry::Manifest m2;
    m2.cv_folds = 5;
    m2.cv_mape = 9.0;
    reg.publish(second, m2);
    return dir;
  }();
  return root;
}

ServeOptions registry_options(const std::string& version = "") {
  ServeOptions options;
  options.registry_dir = two_bundle_registry();
  options.registry_version = version;
  options.n_threads = 2;
  return options;
}

bool is_ok(const std::string& body) {
  return body.find("\"ok\":true") != std::string::npos;
}

/// What the session's live bundle predicts from freshly computed DCA
/// features, bypassing every session cache.
double live_prediction(const ServeSession& session, const std::string& model,
                       const std::string& device) {
  return session.estimator_ptr()->predict(
      core::FeatureExtractor().compute(cnn::zoo::build(model)),
      gpu::device(device));
}

TEST(ServeReload, ServesFromRegistryLatest) {
  ServeSession session(registry_options());
  EXPECT_EQ(session.live_version(), "v0002");
  EXPECT_EQ(session.estimator().regressor_id(), "knn");
  EXPECT_GT(session.predict("alexnet", "gtx1080ti"), 0.0);

  const std::string info = session.handle_line("model_info");
  ASSERT_TRUE(is_ok(info)) << info;
  EXPECT_NE(info.find("\"source\":\"registry\""), std::string::npos) << info;
  EXPECT_NE(info.find("\"version\":\"v0002\""), std::string::npos) << info;
  EXPECT_NE(info.find("\"regressor\":\"knn\""), std::string::npos)
      << info;
  EXPECT_NE(info.find("\"cv_mape\""), std::string::npos) << info;
}

TEST(ServeReload, PinsARequestedVersion) {
  ServeSession session(registry_options("v0001"));
  EXPECT_EQ(session.live_version(), "v0001");
  EXPECT_EQ(session.estimator().regressor_id(), "dt");
}

TEST(ServeReload, ReloadSwapsTheModelEveryPredictUses) {
  ServeSession session(registry_options("v0001"));
  const double before = session.predict("alexnet", "gtx1080ti");
  EXPECT_GT(before, 0.0);

  const std::string body = session.handle_line("reload");
  ASSERT_TRUE(is_ok(body)) << body;
  EXPECT_NE(body.find("\"version\":\"v0002\""), std::string::npos) << body;
  EXPECT_EQ(session.live_version(), "v0002");
  EXPECT_EQ(session.reload_count(), 1u);
  EXPECT_EQ(session.estimator().regressor_id(), "knn");
  // The next predict answers from the knn bundle; DCA features stayed
  // warm.
  EXPECT_GT(session.feature_cache_stats().size, 0u);
  EXPECT_EQ(session.predict("alexnet", "gtx1080ti"),
            live_prediction(session, "alexnet", "gtx1080ti"));

  // Rollback to a pinned version via the endpoint's --version flag.
  const std::string back = session.handle_line("reload --version v0001");
  ASSERT_TRUE(is_ok(back)) << back;
  EXPECT_EQ(session.live_version(), "v0001");
  EXPECT_DOUBLE_EQ(session.predict("alexnet", "gtx1080ti"), before);
}

TEST(ServeReload, ReloadWithoutRegistryIsAnError) {
  ServeOptions options;
  options.train_models = kTinyModels;
  options.n_threads = 2;
  ServeSession session(options);
  const std::string body = session.handle_line("reload");
  EXPECT_NE(body.find("\"ok\":false"), std::string::npos) << body;
  EXPECT_EQ(session.reload_count(), 0u);

  const std::string info = session.handle_line("model_info");
  ASSERT_TRUE(is_ok(info)) << info;
  EXPECT_NE(info.find("\"source\":\"trained\""), std::string::npos) << info;
}

TEST(ServeReload, CorruptBundleKeepsOldModelServing) {
  const std::string root =
      ::testing::TempDir() + "/gpuperf_reload_corrupt";
  fs::remove_all(root);
  registry::ModelRegistry reg(root);
  core::PerformanceEstimator dt("dt", 42);
  dt.train(tiny_dataset());
  reg.publish(dt, {});

  ServeOptions options;
  options.registry_dir = root;
  options.n_threads = 2;
  ServeSession session(options);
  const double before = session.predict("alexnet", "gtx1080ti");

  core::PerformanceEstimator second("knn", 42);
  second.train(tiny_dataset());
  reg.publish(second, {});
  {
    // Corrupt the freshly published bundle's model file.
    std::ofstream out(fs::path(root) / "v0002" / "model.txt",
                      std::ios::trunc);
    out << "garbage\n";
  }

  // A reload pinned to the corrupt version fails typed: the damaged
  // bundle is quarantined and the live model keeps serving.
  const std::string pinned =
      session.handle_line("reload --version v0002");
  EXPECT_NE(pinned.find("\"ok\":false"), std::string::npos) << pinned;
  EXPECT_NE(pinned.find("\"code\":\"model_unavailable\""),
            std::string::npos)
      << pinned;
  EXPECT_NE(pinned.find("checksum"), std::string::npos) << pinned;
  EXPECT_EQ(session.live_version(), "v0001");
  EXPECT_EQ(session.reload_count(), 0u);
  EXPECT_DOUBLE_EQ(session.predict("alexnet", "gtx1080ti"), before);
  EXPECT_TRUE(fs::is_directory(fs::path(root) / "quarantine" / "v0002"));

  // A LATEST reload falls back to the last good bundle instead of
  // failing (docs/ROBUSTNESS.md): still serving, still v0001.
  const std::string body = session.handle_line("reload");
  EXPECT_NE(body.find("\"ok\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"version\":\"v0001\""), std::string::npos) << body;
  EXPECT_EQ(session.live_version(), "v0001");
  EXPECT_DOUBLE_EQ(session.predict("alexnet", "gtx1080ti"), before);
}

TEST(ServeReload, PredictsRacingHotReloadSeeNoErrors) {
  ServeSession session(registry_options("v0001"));
  constexpr int kReaderThreads = 6;
  constexpr int kPredictsPerThread = 40;
  constexpr int kReloads = 16;
  const std::vector<std::string> devices = {"gtx1080ti", "v100s",
                                            "teslat4"};

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t)
    readers.emplace_back([&, t] {
      for (int i = 0; i < kPredictsPerThread; ++i) {
        const std::string body = session.handle_line(
            "predict " + kTinyModels[(t + i) % kTinyModels.size()] + " " +
            devices[i % devices.size()]);
        if (!is_ok(body)) errors.fetch_add(1);
      }
    });

  // Flip between the two bundles while the readers hammer predict.
  for (int i = 0; i < kReloads; ++i)
    session.reload(i % 2 == 0 ? "v0002" : "v0001");

  for (auto& reader : readers) reader.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(session.reload_count(),
            static_cast<std::uint64_t>(kReloads));
  // Once the reloads are over, every answer comes from the live bundle:
  // nothing the racing readers did can leave an old bundle's answer.
  for (const std::string& model : kTinyModels)
    for (const std::string& device : devices)
      EXPECT_EQ(session.predict(model, device),
                live_prediction(session, model, device))
          << model << " on " << device;
  // The final reload installed v0001; model_info agrees.
  const std::string info = session.handle_line("model_info");
  EXPECT_NE(info.find("\"version\":\"v0001\""), std::string::npos) << info;
}

TEST(ServeReload, FeatureStoreWarmStartSkipsDca) {
  const std::string store =
      ::testing::TempDir() + "/gpuperf_reload_store";
  fs::remove_all(store);

  ServeOptions options;
  options.train_models = kTinyModels;
  options.feature_store_dir = store;
  options.n_threads = 2;

  double cold_ipc = 0.0;
  {
    ServeSession cold(options);
    cold_ipc = cold.predict("alexnet", "gtx1080ti");
    cold.predict("mobilenet", "v100s");
    EXPECT_EQ(cold.dca_compute_count(), 2u);
    EXPECT_EQ(cold.feature_store_hit_count(), 0u);
  }

  // A restarted server finds both models in the persistent store and
  // never re-runs slicing/symexec.
  ServeSession warm(options);
  EXPECT_DOUBLE_EQ(warm.predict("alexnet", "gtx1080ti"), cold_ipc);
  warm.predict("mobilenet", "v100s");
  EXPECT_EQ(warm.dca_compute_count(), 0u);
  EXPECT_EQ(warm.feature_store_hit_count(), 2u);

  const std::string stats = warm.stats_json();
  EXPECT_NE(stats.find("\"dca\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"store_hits\""), std::string::npos) << stats;
}

TEST(ServeReload, PollingPicksUpNewBundles) {
  const std::string root = ::testing::TempDir() + "/gpuperf_reload_poll";
  fs::remove_all(root);
  registry::ModelRegistry reg(root);
  core::PerformanceEstimator dt("dt", 42);
  dt.train(tiny_dataset());
  reg.publish(dt, {});

  ServeOptions options;
  options.registry_dir = root;
  options.registry_poll_ms = 20;
  options.n_threads = 2;
  ServeSession session(options);
  EXPECT_EQ(session.live_version(), "v0001");

  core::PerformanceEstimator second("knn", 42);
  second.train(tiny_dataset());
  reg.publish(second, {});

  // The poller must notice LATEST moving without any client request.
  for (int i = 0; i < 250 && session.live_version() != "v0002"; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(session.live_version(), "v0002");
  EXPECT_GE(session.reload_count(), 1u);
}

#ifdef GPUPERF_FAULT_INJECTION
TEST(ServeReload, ReadinessDropsWhileThePollerIsFailing) {
  ServeOptions options;
  options.registry_dir = two_bundle_registry();
  options.registry_poll_ms = 20;
  options.n_threads = 2;
  ServeSession session(options);
  ASSERT_TRUE(is_ok(session.handle_line("ready")));
  EXPECT_NE(session.handle_line("ready").find("\"ready\":true"),
            std::string::npos);

  // A dead registry volume: every latest_version() read throws until
  // the site is disarmed.  Readiness must drop so a load balancer
  // stops routing here while the repair is in flight.
  fault::Spec spec;
  spec.action = fault::Action::kThrow;
  fault::arm("registry.latest", spec);
  std::string body;
  for (int i = 0; i < 250; ++i) {
    body = session.handle_line("ready");
    if (body.find("registry_poll_failing") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(body.find("\"ready\":false"), std::string::npos) << body;
  EXPECT_NE(body.find("registry_poll_failing"), std::string::npos)
      << body;

  // Repair lands: the next successful poll restores readiness.  The
  // poller backs off exponentially, so allow a few seconds.
  fault::disarm_all();
  for (int i = 0; i < 400; ++i) {
    body = session.handle_line("ready");
    if (body.find("\"ready\":true") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(body.find("\"ready\":true"), std::string::npos) << body;
}
#endif  // GPUPERF_FAULT_INJECTION

}  // namespace
}  // namespace gpuperf::serve
