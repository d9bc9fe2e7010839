#include "registry/registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "core/dataset_builder.hpp"
#include "registry/hash.hpp"

namespace fs = std::filesystem;

namespace gpuperf::registry {
namespace {

const ml::Dataset& tiny_dataset() {
  static const ml::Dataset data = [] {
    core::DatasetOptions o;
    o.models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
    o.seed = 21;
    return core::DatasetBuilder(o).build();
  }();
  return data;
}

const core::PerformanceEstimator& trained_estimator() {
  static const core::PerformanceEstimator est = [] {
    core::PerformanceEstimator e("dt", 42);
    e.train(tiny_dataset());
    return e;
  }();
  return est;
}

std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/gpuperf_reg_" + name;
  fs::remove_all(root);
  return root;
}

Manifest manifest_with_mape(double mape) {
  Manifest m;
  m.cv_folds = 5;
  m.cv_mape = mape;
  m.cv_r2 = 0.9;
  return m;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(Registry, StartsEmpty) {
  ModelRegistry reg(fresh_root("empty"));
  EXPECT_TRUE(reg.empty());
  EXPECT_TRUE(reg.versions().empty());
  EXPECT_EQ(reg.latest_version(), "");
  EXPECT_THROW(reg.load(), CheckError);
}

TEST(Registry, PublishLoadRoundTrip) {
  ModelRegistry reg(fresh_root("roundtrip"));
  const std::string version =
      reg.publish(trained_estimator(), manifest_with_mape(10.0));
  EXPECT_EQ(version, "v0001");
  EXPECT_EQ(reg.latest_version(), "v0001");

  Bundle bundle = reg.load();
  EXPECT_EQ(bundle.version, "v0001");
  EXPECT_EQ(bundle.manifest.regressor_id, "dt");
  EXPECT_EQ(bundle.manifest.cv_folds, 5u);
  EXPECT_DOUBLE_EQ(bundle.manifest.cv_mape, 10.0);
  EXPECT_TRUE(bundle.estimator.is_trained());
  for (std::size_t i = 0; i < tiny_dataset().size(); ++i)
    EXPECT_DOUBLE_EQ(bundle.estimator.predict(tiny_dataset().row(i)),
                     trained_estimator().predict(tiny_dataset().row(i)));
}

TEST(Registry, VersionsAscendAndLatestAdvances) {
  ModelRegistry reg(fresh_root("versions"));
  EXPECT_EQ(reg.publish(trained_estimator(), manifest_with_mape(10.0)),
            "v0001");
  EXPECT_EQ(reg.publish(trained_estimator(), manifest_with_mape(9.5)),
            "v0002");
  EXPECT_EQ(reg.versions(),
            (std::vector<std::string>{"v0001", "v0002"}));
  EXPECT_EQ(reg.latest_version(), "v0002");
}

TEST(Registry, PublishPastV9999KeepsNumbering) {
  const std::string root = fresh_root("past9999");
  {
    ModelRegistry reg(root);
    reg.publish(trained_estimator(), manifest_with_mape(10.0));
  }
  // Fast-forward to the last four-digit version without 9,998 publishes.
  fs::rename(fs::path(root) / "v0001", fs::path(root) / "v9999");
  spit(fs::path(root) / "LATEST", "v9999\n");

  ModelRegistry reg(root);
  EXPECT_EQ(reg.latest_version(), "v9999");
  EXPECT_EQ(reg.publish(trained_estimator(), manifest_with_mape(10.0)),
            "v10000");
  EXPECT_EQ(reg.latest_version(), "v10000");
  EXPECT_EQ(reg.versions(),
            (std::vector<std::string>{"v9999", "v10000"}));
  EXPECT_EQ(reg.load().version, "v10000");
  // And the numbering goes on from there.
  EXPECT_EQ(reg.publish(trained_estimator(), manifest_with_mape(10.0)),
            "v10001");
  EXPECT_EQ(reg.versions().back(), "v10001");
}

TEST(Registry, GateRefusesMapeRegression) {
  ModelRegistry reg(fresh_root("gate"));
  reg.publish(trained_estimator(), manifest_with_mape(10.0));

  // 15% regresses past 10% + 1pt margin: refused, nothing written.
  EXPECT_THROW(reg.publish(trained_estimator(), manifest_with_mape(15.0)),
               CheckError);
  EXPECT_EQ(reg.versions(), std::vector<std::string>{"v0001"});
  EXPECT_EQ(reg.latest_version(), "v0001");

  // Inside the margin: accepted.
  EXPECT_EQ(reg.publish(trained_estimator(), manifest_with_mape(10.9)),
            "v0002");

  // A wider margin accepts what the default refused.
  PublishOptions wide;
  wide.max_mape_regression = 10.0;
  EXPECT_EQ(reg.publish(trained_estimator(), manifest_with_mape(15.0), wide),
            "v0003");

  // force bypasses the gate entirely.
  PublishOptions forced;
  forced.force = true;
  EXPECT_EQ(
      reg.publish(trained_estimator(), manifest_with_mape(99.0), forced),
      "v0004");
}

TEST(Registry, BundlesWithoutCvMetricsAreNotGated) {
  ModelRegistry reg(fresh_root("nocv"));
  reg.publish(trained_estimator(), manifest_with_mape(10.0));
  Manifest no_cv;  // cv_folds == 0: the gate cannot compare
  EXPECT_EQ(reg.publish(trained_estimator(), no_cv), "v0002");
}

TEST(Registry, RollbackViaSetLatest) {
  ModelRegistry reg(fresh_root("rollback"));
  reg.publish(trained_estimator(), manifest_with_mape(10.0));
  reg.publish(trained_estimator(), manifest_with_mape(9.0));
  EXPECT_EQ(reg.latest_version(), "v0002");

  reg.set_latest("v0001");
  EXPECT_EQ(reg.latest_version(), "v0001");
  EXPECT_EQ(reg.load().version, "v0001");

  EXPECT_THROW(reg.set_latest("v0042"), CheckError);
  EXPECT_THROW(reg.set_latest("not-a-version"), CheckError);
}

TEST(Registry, RejectsCorruptedModelFile) {
  const std::string root = fresh_root("corrupt_model");
  ModelRegistry reg(root);
  reg.publish(trained_estimator(), manifest_with_mape(10.0));
  reg.publish(trained_estimator(), manifest_with_mape(9.0));

  const fs::path model = fs::path(root) / "v0002" / "model.txt";
  std::string text = slurp(model);
  text[text.size() / 2] ^= 0x20;  // flip one byte
  spit(model, text);

  // The explicit load throws and moves the damaged bundle aside; a
  // LATEST load then repairs the pointer and serves the last good
  // version instead of failing.
  EXPECT_THROW(reg.load("v0002"), BundleCorruptError);
  EXPECT_EQ(reg.quarantined_total(), 1u);
  EXPECT_TRUE(fs::is_directory(fs::path(root) / "quarantine" / "v0002"));
  EXPECT_EQ(reg.versions(), std::vector<std::string>{"v0001"});
  EXPECT_EQ(reg.load().version, "v0001");
  EXPECT_NO_THROW(reg.load("v0001"));  // siblings stay loadable
}

TEST(Registry, RejectsTruncatedManifest) {
  const std::string root = fresh_root("trunc_manifest");
  ModelRegistry reg(root);
  reg.publish(trained_estimator(), manifest_with_mape(10.0));

  const fs::path manifest = fs::path(root) / "v0001" / "MANIFEST";
  const std::string text = slurp(manifest);
  spit(manifest, text.substr(0, text.size() / 3));

  EXPECT_THROW(reg.load("v0001"), CheckError);
}

TEST(Registry, RejectsFeatureSchemaMismatch) {
  const std::string root = fresh_root("schema");
  ModelRegistry reg(root);
  reg.publish(trained_estimator(), manifest_with_mape(10.0));

  // Rewrite the schema hash as if the bundle came from another build.
  const fs::path manifest = fs::path(root) / "v0001" / "MANIFEST";
  Manifest m = deserialize_manifest(slurp(manifest));
  m.feature_schema_hash ^= 1;
  spit(manifest, serialize_manifest(m));

  // Incompatible, not corrupt: the bundle must stay in place.
  EXPECT_THROW(reg.load("v0001"), CheckError);
  EXPECT_EQ(reg.quarantined_total(), 0u);
  EXPECT_EQ(reg.versions(), std::vector<std::string>{"v0001"});
}

TEST(Registry, RejectsManifestModelIdMismatch) {
  const std::string root = fresh_root("id_mismatch");
  ModelRegistry reg(root);
  reg.publish(trained_estimator(), manifest_with_mape(10.0));

  const fs::path manifest = fs::path(root) / "v0001" / "MANIFEST";
  Manifest m = deserialize_manifest(slurp(manifest));
  m.regressor_id = "rf";
  spit(manifest, serialize_manifest(m));

  EXPECT_THROW(reg.load("v0001"), CheckError);
}

TEST(Registry, ManifestSerializationRoundTrips) {
  Manifest m;
  m.regressor_id = "xgb";
  m.feature_schema_hash = 0xdeadbeefcafef00dULL;
  m.n_features = 10;
  m.seed = 7;
  m.train_models = {"alexnet", "vgg16"};
  m.train_devices = {};
  m.cv_folds = 5;
  m.cv_mape = 12.25;
  m.cv_r2 = 0.875;
  m.model_checksum = 42;

  const Manifest back = deserialize_manifest(serialize_manifest(m));
  EXPECT_EQ(back.regressor_id, m.regressor_id);
  EXPECT_EQ(back.feature_schema_hash, m.feature_schema_hash);
  EXPECT_EQ(back.n_features, m.n_features);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.train_models, m.train_models);
  EXPECT_EQ(back.train_devices, m.train_devices);
  EXPECT_EQ(back.cv_folds, m.cv_folds);
  EXPECT_DOUBLE_EQ(back.cv_mape, m.cv_mape);
  EXPECT_DOUBLE_EQ(back.cv_r2, m.cv_r2);
  EXPECT_EQ(back.model_checksum, m.model_checksum);

  EXPECT_THROW(deserialize_manifest("not a manifest"), CheckError);
  EXPECT_THROW(deserialize_manifest("gpuperf-bundle v1\n"), CheckError);
}

TEST(Registry, Fnv1a64MatchesReferenceVectors) {
  // Reference values from the FNV specification.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hex64(0xaf63dc4c8601ec8cULL), "af63dc4c8601ec8c");
  EXPECT_EQ(parse_hex64("af63dc4c8601ec8c"), 0xaf63dc4c8601ec8cULL);
  EXPECT_THROW(parse_hex64("xyz"), CheckError);
}

}  // namespace
}  // namespace gpuperf::registry
