#include "core/dse.hpp"

#include <gtest/gtest.h>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "core/dataset_builder.hpp"
#include "gpu/device_db.hpp"
#include "ptx/counter.hpp"

namespace gpuperf::core {
namespace {

PerformanceEstimator make_trained_estimator() {
  DatasetOptions o;
  o.models = {"alexnet", "MobileNetV2", "mobilenet", "vgg16",
              "densenet121", "resnet50v2"};
  o.devices = {"gtx1080ti", "v100s"};
  o.seed = 33;
  PerformanceEstimator est("dt", 42);
  est.train(DatasetBuilder(o).build());
  return est;
}

TEST(Dse, RequiresTrainedEstimator) {
  PerformanceEstimator untrained("dt", 1);
  EXPECT_THROW(DseExplorer{untrained}, CheckError);
}

TEST(Dse, RankDevicesSortedByThroughput) {
  PerformanceEstimator est = make_trained_estimator();
  DseExplorer dse(est);
  const auto ranking = dse.rank_devices(
      FeatureExtractor().compute(cnn::zoo::build("alexnet")),
      gpu::dse_devices());
  ASSERT_EQ(ranking.size(), gpu::dse_devices().size());
  for (std::size_t i = 1; i < ranking.size(); ++i)
    EXPECT_GE(ranking[i - 1].predicted_throughput,
              ranking[i].predicted_throughput);
  for (const auto& r : ranking) {
    EXPECT_GT(r.predicted_ipc, 0.0);
    EXPECT_TRUE(gpu::has_device(r.device));
  }
}

TEST(Dse, TimingModelAlgebra) {
  DseTiming t;
  t.t_dca = 10.0;
  t.t_pm = 0.5;
  t.t_p = 300.0;
  EXPECT_DOUBLE_EQ(t.t_est(1), 10.5);
  EXPECT_DOUBLE_EQ(t.t_est(7), 13.5);
  EXPECT_DOUBLE_EQ(t.t_measur(7), 2100.0);
  EXPECT_DOUBLE_EQ(t.speedup(7), 2100.0 / 13.5);
  // Speedup grows with n when t_pm << t_p.
  EXPECT_GT(t.speedup(7), t.speedup(1));
}

TEST(Dse, TimeModelMeasuresRealPipeline) {
  PerformanceEstimator est = make_trained_estimator();
  DseExplorer dse(est);
  const DseTiming timing =
      dse.time_model("MobileNetV2", {"gtx1080ti", "v100s"});
  EXPECT_EQ(timing.model, "MobileNetV2");
  EXPECT_GT(timing.t_dca, 0.0);
  EXPECT_GT(timing.t_pm, 0.0);
  EXPECT_GT(timing.t_p, 1.0);
  // The paper's headline: estimation beats profiling for any n.
  for (int n = 1; n <= 7; ++n)
    EXPECT_LT(timing.t_est(n), timing.t_measur(n)) << "n=" << n;
}

TEST(Dse, TimeModelRunsAColdAnalysis) {
  PerformanceEstimator est = make_trained_estimator();
  DseExplorer dse(est);
  // Training analysed MobileNetV2, and this counts it once more, so
  // every one of its launches sits in the memo.
  (void)FeatureExtractor().compute(cnn::zoo::build("MobileNetV2"));
  const std::uint64_t misses = ptx::InstructionCounter::memo_stats().misses;
  const DseTiming timing = dse.time_model("MobileNetV2", {"v100s"});
  EXPECT_GT(ptx::InstructionCounter::memo_stats().misses, misses);
  EXPECT_GT(timing.t_dca, 0.0);
}

}  // namespace
}  // namespace gpuperf::core
