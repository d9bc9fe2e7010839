#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "core/dataset_builder.hpp"
#include "gpu/device_db.hpp"

namespace gpuperf::core {
namespace {

const ml::Dataset& tiny_dataset() {
  static const ml::Dataset data = [] {
    DatasetOptions o;
    o.models = {"alexnet", "MobileNetV2", "mobilenet", "vgg16",
                "densenet121", "resnet50v2"};
    o.devices = {"gtx1080ti", "v100s"};
    o.seed = 21;
    return DatasetBuilder(o).build();
  }();
  return data;
}

TEST(Estimator, TrainPredictEvaluateRoundTrip) {
  PerformanceEstimator est("dt", 42);
  EXPECT_FALSE(est.is_trained());
  est.train(tiny_dataset());
  EXPECT_TRUE(est.is_trained());

  const ml::RegressionScore score = est.evaluate(tiny_dataset());
  EXPECT_LT(score.mape, 15.0);  // training-set fit should be decent

  const double p = est.predict(tiny_dataset().row(0));
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 8.0);
}

TEST(Estimator, PredictByModelAndDevice) {
  PerformanceEstimator est("dt", 42);
  est.train(tiny_dataset());
  const double ipc = est.predict("alexnet", gpu::device("gtx1080ti"));
  EXPECT_GT(ipc, 0.0);
  EXPECT_GE(est.last_dca_seconds(), 0.0);
  EXPECT_GE(est.last_predict_seconds(), 0.0);
  // Second call hits the feature cache but still predicts.
  EXPECT_DOUBLE_EQ(est.predict("alexnet", gpu::device("gtx1080ti")), ipc);
}

TEST(Estimator, EveryRegressorIdTrains) {
  for (const auto& id : ml::regressor_ids()) {
    PerformanceEstimator est(id, 42);
    est.train(tiny_dataset());
    EXPECT_TRUE(est.is_trained()) << id;
    EXPECT_EQ(est.regressor_id(), id);
    const double p = est.predict(tiny_dataset().row(0));
    EXPECT_TRUE(std::isfinite(p)) << id;
  }
  EXPECT_THROW(PerformanceEstimator("mlp", 1), CheckError);
}

TEST(Estimator, TreeImportancesAlignWithSchema) {
  PerformanceEstimator est("dt", 42);
  est.train(tiny_dataset());
  const auto imp = est.feature_importances();
  ASSERT_EQ(imp.size(), FeatureExtractor::feature_names().size());
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Estimator, KnnHasNoImportances) {
  PerformanceEstimator est("knn", 42);
  est.train(tiny_dataset());
  EXPECT_TRUE(est.feature_importances().empty());
}

TEST(Estimator, ErrorsBeforeTraining) {
  PerformanceEstimator est("dt", 42);
  EXPECT_THROW(est.predict(std::vector<double>(10, 1.0)), CheckError);
  EXPECT_THROW(est.predict("alexnet", gpu::device("v100s")), CheckError);
  EXPECT_THROW(est.evaluate(tiny_dataset()), CheckError);
  EXPECT_THROW(est.feature_importances(), CheckError);
}

TEST(Estimator, RejectsWrongSchema) {
  PerformanceEstimator est("dt", 42);
  ml::Dataset wrong({"a", "b"}, "y");
  wrong.add_row({1, 2}, 3);
  EXPECT_THROW(est.train(wrong), CheckError);
}

TEST(Estimator, CrossPlatformPredictionOnUnseenDevice) {
  // Train on the two paper devices, predict on a device absent from
  // training — the cross-platform capability the paper claims.
  PerformanceEstimator est("dt", 42);
  est.train(tiny_dataset());
  const double ipc = est.predict("alexnet", gpu::device("teslat4"));
  EXPECT_GT(ipc, 0.0);
  EXPECT_LT(ipc, 8.0);
}


TEST(Estimator, ThreadSafeConstPredictMatchesNamedPredict) {
  PerformanceEstimator est("dt", 42);
  est.train(tiny_dataset());
  const double by_name = est.predict("alexnet", gpu::device("v100s"));
  const core::ModelFeatures features =
      FeatureExtractor().compute(cnn::zoo::build("alexnet"));
  EXPECT_DOUBLE_EQ(est.predict(features, gpu::device("v100s")), by_name);
}

TEST(Estimator, SaveLoadRoundTrip) {
  PerformanceEstimator est("dt", 42);
  est.train(tiny_dataset());
  const std::string path = ::testing::TempDir() + "/gpuperf_estimator.txt";
  est.save(path);
  PerformanceEstimator loaded = PerformanceEstimator::load(path);
  EXPECT_TRUE(loaded.is_trained());
  for (std::size_t i = 0; i < tiny_dataset().size(); ++i)
    EXPECT_DOUBLE_EQ(loaded.predict(tiny_dataset().row(i)),
                     est.predict(tiny_dataset().row(i)));
}

TEST(Estimator, EveryRegressorIdSerializes) {
  for (const auto& id : ml::regressor_ids()) {
    PerformanceEstimator est(id, 42);
    est.train(tiny_dataset());
    const std::string path =
        ::testing::TempDir() + "/gpuperf_est_" + id + ".txt";
    est.save(path);
    PerformanceEstimator loaded = PerformanceEstimator::load(path);
    EXPECT_EQ(loaded.regressor_id(), id);
    for (std::size_t i = 0; i < tiny_dataset().size(); ++i)
      EXPECT_DOUBLE_EQ(loaded.predict(tiny_dataset().row(i)),
                       est.predict(tiny_dataset().row(i)))
          << id;
  }
}

TEST(Estimator, UntrainedEstimatorRefusesToSerialize) {
  PerformanceEstimator untrained("dt", 42);
  EXPECT_THROW(untrained.save(::testing::TempDir() + "/y.txt"), CheckError);
}

}  // namespace
}  // namespace gpuperf::core
