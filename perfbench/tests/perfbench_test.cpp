// Tests of the benchmark's own measuring and checking code: exact
// percentiles, the stats/response JSON reader, span self times and the
// answer oracle against a live in-process session.
#include <gtest/gtest.h>

#include <thread>

#include "json_flat.hpp"
#include "oracle.hpp"
#include "serve/session.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankIsExact) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({7.5}, 0.99), 7.5);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SeesATenPercentShift) {
  // A ±15% bucketed histogram maps both sets to one bucket; raw samples
  // do not.
  const std::vector<double> base(1000, 964.0);
  const std::vector<double> slower(1000, 964.0 * 1.1);
  EXPECT_NEAR(percentile(slower, 0.5) / percentile(base, 0.5), 1.1, 1e-12);
}

TEST(Percentile, SummaryCountsSamples) {
  const Summary s = summarize({3, 1, 2, 4});
  EXPECT_EQ(s.n, 4u);
  EXPECT_EQ(s.p50, 2.0);
  EXPECT_EQ(s.p99, 4.0);
}

TEST(Window, BestAnswersSetThroughputAndMedian) {
  Window w;
  // Request 0 answers in 1000 µs once and 3000 µs once (a stalled
  // repeat); request 1 in 3000 µs; request 2 only wrongly.
  for (const auto& [key, us] : {std::pair<std::size_t, double>{0, 3000.0},
                                {1, 3000.0}, {0, 1000.0}}) {
    w.record(us, true, "");
    w.record_best(key, us);
  }
  w.record(500.0, false, "wrong");
  w.finish();
  EXPECT_DOUBLE_EQ(w.throughput(), 2e6 / 4000.0);
  EXPECT_DOUBLE_EQ(w.p50(), 1000.0);
  EXPECT_NE(w.basis().find("each of 2 pool requests, n=4"), std::string::npos)
      << w.basis();
}

TEST(Window, CalibrationScalesBestsToTheReferenceHost) {
  Window w;
  w.record(3000.0, true, "");
  w.record_best(0, 3000.0);
  // A host on which the loop takes 1.5× the reference at best.
  w.record_calibration(1.8 * Window::kReferenceCalibrationUs);
  w.record_calibration(1.5 * Window::kReferenceCalibrationUs);
  w.finish();
  EXPECT_DOUBLE_EQ(w.host_scale(), 1.5);
  EXPECT_DOUBLE_EQ(w.p50(), 2000.0);
  EXPECT_DOUBLE_EQ(w.throughput(), 500.0);
  EXPECT_NE(w.basis().find("of 2, reference"), std::string::npos) << w.basis();
}

TEST(Window, WithoutBestsUsesSegments) {
  Window w;
  w.record(10.0, true, "");
  w.record(30.0, true, "");
  w.record(20.0, true, "");
  w.finish();
  EXPECT_DOUBLE_EQ(w.p50(), 20.0);
  EXPECT_NE(w.basis().find("of 1 segments, n=3"), std::string::npos)
      << w.basis();
}

TEST(FlatJson, FlattensNestedObjectsAndArrays) {
  const FlatJson j = flatten_json(
      R"({"ok":true,"caches":{"results":{"hits":12,"misses":3}},)"
      R"("list":[{"d":"a\"b"},{"d":"c"}],"x":1.25e-3,"e":{}})");
  EXPECT_EQ(j.at("ok"), "true");
  EXPECT_EQ(j.at("caches.results.hits"), "12");
  EXPECT_EQ(j.at("list.0.d"), "a\"b");
  EXPECT_EQ(j.at("list.1.d"), "c");
  EXPECT_EQ(j.at("x"), "1.25e-3");  // number text kept verbatim
  EXPECT_EQ(number_at(j, "caches.results.misses"), 3.0);
  EXPECT_FALSE(number_at(j, "batch.batches").has_value());
  EXPECT_FALSE(number_at(j, "list.0.d").has_value());
}

TEST(FlatJson, RejectsMalformedInput) {
  EXPECT_THROW(flatten_json(R"({"a":1)"), std::runtime_error);
  EXPECT_THROW(flatten_json(R"({"a":1} x)"), std::runtime_error);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer t;
  {
    const ScopedSpan parent(t, "parent", 1);
    const ScopedSpan child(t, "child", 1, parent.id());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(t.self_us("parent").size(), 1u);
  EXPECT_LT(t.self_us("parent")[0], 2000.0);
  EXPECT_GE(t.self_us("child")[0], 5000.0);
  EXPECT_TRUE(t.has("child"));
  EXPECT_FALSE(t.has("other"));
}

TEST(Oracle, MaskAndDigestHelpers) {
  EXPECT_EQ(mask_number(R"({"a":1,"elapsed_ms":3.25,"b":2})", "elapsed_ms"),
            R"({"a":1,"elapsed_ms":*,"b":2})");
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

class OracleVsSession : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gpuperf::serve::ServeOptions options;
    options.train_models = {"alexnet", "vgg16", "resnet101", "mobilenet"};
    session_ = new gpuperf::serve::ServeSession(options);
    oracle_ = new Oracle(session_->estimator_ptr());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete session_;
  }
  static gpuperf::serve::ServeSession* session_;
  static Oracle* oracle_;
};

gpuperf::serve::ServeSession* OracleVsSession::session_ = nullptr;
Oracle* OracleVsSession::oracle_ = nullptr;

TEST_F(OracleVsSession, PredictAnswersMatchBitForBit) {
  const std::size_t m = oracle_->model_index("vgg16");
  std::size_t d = 0;
  while (oracle_->devices()[d]->name != "v100s") ++d;
  const std::string cold = session_->handle_line("predict vgg16 v100s");
  const std::string warm = session_->handle_line("predict vgg16 v100s");
  EXPECT_EQ(cold, oracle_->predict_body(m, d, false));
  EXPECT_EQ(warm, oracle_->predict_body(m, d, true));
  // One changed digit of the IPC is a wrong answer.
  std::string wrong = cold;
  const std::size_t at = wrong.find("\"ipc\":") + 8;
  wrong[at] = wrong[at] == '1' ? '2' : '1';
  EXPECT_NE(wrong, oracle_->predict_body(m, d, false));
}

TEST_F(OracleVsSession, RankAnswerMatches) {
  const std::size_t m = oracle_->model_index("alexnet");
  EXPECT_EQ(session_->handle_line("rank alexnet"), oracle_->rank_body(m));
  EXPECT_NE(session_->handle_line("rank vgg16"), oracle_->rank_body(m));
}

TEST_F(OracleVsSession, DseAnswersMatchWithTelemetryMasked) {
  const std::string line = "dse alexnet,vgg16,alexnet --w-power=0.5";
  session_->handle_line(line);  // warm the features
  const std::string body = session_->handle_line(line);
  EXPECT_TRUE(dse_matches(oracle_->dse_body(line), body)) << body;
  EXPECT_FALSE(dse_matches(oracle_->dse_body("dse alexnet,vgg16"), body));

  const std::string infeasible = "dse alexnet,vgg16 --max-latency-ms=1e-9";
  const std::string error = session_->handle_line(infeasible);
  EXPECT_NE(error.find("constraint_infeasible"), std::string::npos);
  EXPECT_TRUE(dse_matches(oracle_->dse_body(infeasible), error)) << error;
}

TEST_F(OracleVsSession, DigestIsStable) {
  EXPECT_EQ(oracle_->digest(), Oracle(session_->estimator_ptr()).digest());
}

}  // namespace
}  // namespace perfbench
