// End-to-end pipeline tests: the full phase-1 -> phase-2 flow on a
// reduced model set, checking the properties the paper's experiments
// rely on (disjoint splits, deterministic reruns, sane accuracy for
// every algorithm, cross-platform generalization).
#include <gtest/gtest.h>

#include <set>

#include "cnn/zoo.hpp"
#include "common/rng.hpp"
#include "core/dataset_builder.hpp"
#include "core/dse.hpp"
#include "core/estimator.hpp"
#include "gpu/device_db.hpp"
#include "ml/cross_validation.hpp"

namespace gpuperf {
namespace {

const ml::Dataset& pipeline_dataset() {
  static const ml::Dataset data = [] {
    core::DatasetOptions options;
    options.models = {"alexnet",     "MobileNetV2",   "mobilenet",
                      "vgg16",       "densenet121",   "resnet50v2",
                      "Xception",    "efficientnetb0", "inceptionv3",
                      "m-r50x1"};
    options.seed = 99;
    return core::DatasetBuilder(options).build();
  }();
  return data;
}

TEST(Pipeline, DatasetMatchesPaperFormalization) {
  const ml::Dataset& data = pipeline_dataset();
  // d = (y, p, c1..cm, t): one row per (CNN, GPU), IPC response.
  EXPECT_EQ(data.size(), 20u);
  EXPECT_EQ(data.n_features(), 10u);
  EXPECT_EQ(data.target_name(), "ipc");

  // Every (model, device) pair appears exactly once.
  std::set<std::string> tags;
  for (std::size_t i = 0; i < data.size(); ++i) tags.insert(data.tag(i));
  EXPECT_EQ(tags.size(), data.size());
}

TEST(Pipeline, SeventyThirtySplitIsDisjointAndCovering) {
  const ml::Dataset& data = pipeline_dataset();
  Rng rng(5);
  const auto [train, eval] = data.split(0.7, rng);
  EXPECT_EQ(train.size() + eval.size(), data.size());
  std::set<std::string> train_tags;
  for (std::size_t i = 0; i < train.size(); ++i)
    train_tags.insert(train.tag(i));
  for (std::size_t i = 0; i < eval.size(); ++i)
    EXPECT_EQ(train_tags.count(eval.tag(i)), 0u) << eval.tag(i);
}

TEST(Pipeline, EveryAlgorithmReachesUsableAccuracy) {
  const ml::Dataset& data = pipeline_dataset();
  Rng rng(5);
  const auto [train, eval] = data.split(0.7, rng);
  for (const auto& id : ml::regressor_ids()) {
    core::PerformanceEstimator estimator(id, 42);
    estimator.train(train);
    const ml::RegressionScore score = estimator.evaluate(eval);
    EXPECT_LT(score.mape, 40.0) << id;
    EXPECT_GT(score.mape, 0.0) << id;
  }
}

TEST(Pipeline, WholeExperimentIsDeterministic) {
  // Rebuild dataset + retrain + re-evaluate: identical numbers.
  auto run_once = [] {
    core::DatasetOptions options;
    options.models = {"alexnet", "MobileNetV2", "vgg16", "densenet121"};
    options.seed = 7;
    const ml::Dataset data = core::DatasetBuilder(options).build();
    Rng rng(3);
    const auto [train, eval] = data.split(0.7, rng);
    core::PerformanceEstimator estimator("dt", 42);
    estimator.train(train);
    return estimator.evaluate(eval).mape;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Pipeline, HoldoutProtocolExcludesWholeModels) {
  const ml::Dataset& data = pipeline_dataset();
  const std::vector<std::string> holdouts = {"alexnet", "Xception"};
  const auto [train, held] = data.split_by_tag_prefix(holdouts);
  EXPECT_EQ(held.size(), 4u);  // 2 models x 2 devices
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(train.tag(i).find("alexnet"), std::string::npos);
    EXPECT_EQ(train.tag(i).find("Xception"), std::string::npos);
  }
  // Predicting the held-out models still works through the estimator.
  core::PerformanceEstimator estimator("dt", 42);
  estimator.train(train);
  const double p =
      estimator.predict("alexnet", gpu::device("gtx1080ti"));
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 8.0);
}

TEST(Pipeline, CrossValidationRunsOnRealDataset) {
  const ml::CvResult cv =
      ml::cross_validate(pipeline_dataset(), 4, "dt", 42);
  EXPECT_EQ(cv.folds.size(), 4u);
  EXPECT_LT(cv.pooled.mape, 40.0);
}

TEST(Pipeline, DseRankingPrefersStrongerSilicon) {
  core::PerformanceEstimator estimator("dt", 42);
  estimator.train(pipeline_dataset());
  core::DseExplorer dse(estimator);
  const auto ranking = dse.rank_devices(
      core::FeatureExtractor().compute(cnn::zoo::build("resnet50v2")),
      {"v100s", "quadrop1000", "gtx1080ti"});
  // The Quadro P1000 (5 SMs, 80 GB/s) must not be ranked first among
  // these three for a heavy CNN.
  EXPECT_NE(ranking.front().device, "quadrop1000");
  EXPECT_EQ(ranking.back().device, "quadrop1000");
}

TEST(Pipeline, EstimatorGeneralizesAcrossDeviceEnvelope) {
  // Train with the defaults (2 devices) and check predictions on all 10
  // database devices stay within the physically sensible band.
  core::PerformanceEstimator estimator("dt", 42);
  estimator.train(pipeline_dataset());
  for (const auto& device : gpu::device_database()) {
    const double p = estimator.predict("MobileNetV2", device);
    EXPECT_GT(p, 0.0) << device.name;
    EXPECT_LT(p, 8.0) << device.name;
  }
}

}  // namespace
}  // namespace gpuperf
