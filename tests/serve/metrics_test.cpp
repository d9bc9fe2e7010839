#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"

namespace gpuperf::serve {
namespace {

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.percentile(0.5), 0.0);
  EXPECT_EQ(histogram.mean_seconds(), 0.0);
  EXPECT_EQ(histogram.max_seconds(), 0.0);
}

TEST(LatencyHistogram, PercentilesBracketTheSamples) {
  LatencyHistogram histogram;
  // 90 fast requests at ~1 ms, 10 slow at ~1 s.
  for (int i = 0; i < 90; ++i) histogram.record(1e-3);
  for (int i = 0; i < 10; ++i) histogram.record(1.0);
  EXPECT_EQ(histogram.count(), 100u);
  const double p50 = histogram.percentile(0.50);
  const double p95 = histogram.percentile(0.95);
  // Assert the right decade.
  EXPECT_GT(p50, 0.5e-3);
  EXPECT_LT(p50, 2e-3);
  EXPECT_GT(p95, 0.5);
  EXPECT_LT(p95, 2.0);
  EXPECT_NEAR(histogram.mean_seconds(), (90 * 1e-3 + 10 * 1.0) / 100.0,
              1e-3);
  EXPECT_NEAR(histogram.max_seconds(), 1.0, 1e-6);
}

TEST(LatencyHistogram, ClampsOutOfRangeSamples) {
  LatencyHistogram histogram;
  histogram.record(-1.0);    // negative → treated as 0
  histogram.record(1e-9);    // below the first bucket
  histogram.record(1e6);     // beyond the last bucket
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_GT(histogram.percentile(1.0), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecording) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) histogram.record(1e-3);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(LatencyHistogram, EverySampleReadsBackWithinItsBucket) {
  // A median over one sample and one past the last bucket reads back
  // the first sample's bucket: every nanosecond up to 4,096, the edges
  // of each power-of-two range up to 2^36 ns, and 100 s.  Past 64 ns no
  // bucket is wider than 1/32 of the values it holds, so its midpoint
  // is within 1/64; below, within half a nanosecond (plus one for the
  // seconds-to-nanoseconds rounding).
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 0; v < 4096; ++v) samples.push_back(v);
  for (int bit = 12; bit < 36; ++bit)
    for (const std::uint64_t v : {std::uint64_t{1} << bit,
                                  (std::uint64_t{1} << bit) + 1,
                                  (std::uint64_t{3} << (bit - 1)) + 7,
                                  (std::uint64_t{1} << (bit + 1)) - 1})
      samples.push_back(v);
  samples.push_back(100'000'000'000ull);
  for (const std::uint64_t v : samples) {
    LatencyHistogram histogram;
    histogram.record(static_cast<double>(v) * 1e-9);
    histogram.record(1000.0);
    const double read_ns = histogram.percentile(0.5) * 1e9;
    const double exact = static_cast<double>(v);
    ASSERT_NEAR(read_ns, exact, exact / 64 + 1.0) << v << " ns";
  }
}

TEST(LatencyHistogram, PercentilesTrackTheSampleQuantiles) {
  std::mt19937_64 rng(7);
  const auto check = [](std::vector<double> samples, const char* what) {
    LatencyHistogram histogram;
    for (const double s : samples) histogram.record(s);
    std::sort(samples.begin(), samples.end());
    for (const double p : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const auto rank = static_cast<std::size_t>(std::max(
          1.0, std::ceil(p * static_cast<double>(samples.size()))));
      const double exact = samples[rank - 1];
      EXPECT_NEAR(histogram.percentile(p), exact, 0.032 * exact)
          << what << " p" << p;
    }
  };
  std::uniform_real_distribution<double> narrow(40e-6, 60e-6);
  std::uniform_real_distribution<double> decades(std::log(1e-6),
                                                 std::log(100.0));
  std::exponential_distribution<double> tail(1.0 / 200e-6);
  std::vector<double> uniform, log_uniform, bimodal;
  for (int i = 0; i < 20000; ++i) {
    uniform.push_back(narrow(rng));
    log_uniform.push_back(std::exp(decades(rng)));
    bimodal.push_back(i % 10 == 0 ? 0.5 + tail(rng) : 30e-6 + tail(rng));
  }
  check(uniform, "uniform 40-60 us");
  check(log_uniform, "log-uniform 1 us - 100 s");
  check(bimodal, "bimodal 30 us / 0.5 s");
}

TEST(LatencyHistogram, TenPercentApartSamplesGiveDistinctMedians) {
  LatencyHistogram at_50us, at_55us;
  for (int i = 0; i < 100; ++i) {
    at_50us.record(50e-6);
    at_55us.record(55e-6);
  }
  EXPECT_NEAR(at_50us.percentile(0.5), 50e-6, 0.016 * 50e-6);
  EXPECT_NEAR(at_55us.percentile(0.5), 55e-6, 0.016 * 55e-6);
  EXPECT_LT(at_50us.percentile(0.5), at_55us.percentile(0.5));
}

TEST(MetricsRegistry, EndpointIsStable) {
  MetricsRegistry registry;
  EndpointMetrics& a = registry.endpoint("predict");
  EndpointMetrics& b = registry.endpoint("predict");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, ScopedRequestRecords) {
  MetricsRegistry registry;
  EndpointMetrics& endpoint = registry.endpoint("predict");
  {
    MetricsRegistry::ScopedRequest scope(registry, endpoint);
    EXPECT_EQ(registry.in_flight(), 1);
  }
  EXPECT_EQ(registry.in_flight(), 0);
  EXPECT_EQ(endpoint.requests.load(), 1u);
  EXPECT_EQ(endpoint.errors.load(), 0u);
  EXPECT_EQ(endpoint.latency.count(), 1u);
  {
    MetricsRegistry::ScopedRequest scope(registry, endpoint);
    scope.mark_error();
  }
  EXPECT_EQ(endpoint.errors.load(), 1u);
}

TEST(MetricsRegistry, JsonContainsEndpoints) {
  MetricsRegistry registry;
  { MetricsRegistry::ScopedRequest s(registry, registry.endpoint("rank")); }
  JsonWriter json;
  json.begin_object();
  registry.write_json(json);
  json.end_object();
  const std::string& text = json.str();
  EXPECT_NE(text.find("\"endpoints\""), std::string::npos);
  EXPECT_NE(text.find("\"rank\""), std::string::npos);
  EXPECT_NE(text.find("\"p95_ms\""), std::string::npos);
  EXPECT_NE(text.find("\"in_flight\":0"), std::string::npos);
}

TEST(MetricsRegistry, SummarySkipsIdleEndpoints) {
  MetricsRegistry registry;
  registry.endpoint("idle");
  { MetricsRegistry::ScopedRequest s(registry, registry.endpoint("busy")); }
  const std::string text = registry.summary();
  EXPECT_NE(text.find("busy"), std::string::npos);
  EXPECT_EQ(text.find("idle"), std::string::npos);
}

}  // namespace
}  // namespace gpuperf::serve
