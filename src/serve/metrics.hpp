// Service metrics: per-endpoint request/error counters and log-linear
// latency histograms (p50/p95), plus an in-flight gauge.  Everything is
// lock-free on the hot path (atomic bumps); the registry map itself is
// mutex-guarded but endpoints are created once and then only read.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"

namespace gpuperf::serve {

class JsonWriter;

/// Log-linear latency histogram over integer nanoseconds (HDR-style):
/// every power-of-two range [2^e, 2^(e+1)) is cut into 32 equal
/// sub-buckets, so no bucket is wider than 1/32 (3.125 %) of the values
/// it holds, and below 64 ns every nanosecond has its own bucket.  The
/// buckets reach 2^37 ns (about 137 s); longer samples share the last.
/// A percentile is within 1/64 of the sample quantile, so a 10 % shift
/// always shows.  record() finds its bucket with a bit_width and a
/// shift, no floating-point log.
class LatencyHistogram {
 public:
  /// 33 power-of-two ranges of 32 sub-buckets: the first 64 are one
  /// nanosecond wide, the last also holds every sample past 2^37 ns.
  static constexpr int kBuckets = 33 * 32;

  void record(double seconds);

  std::uint64_t count() const { return count_.load(); }
  double total_seconds() const {
    return static_cast<double>(total_nanos_.load()) * 1e-9;
  }
  double mean_seconds() const;
  double max_seconds() const {
    return static_cast<double>(max_nanos_.load()) * 1e-9;
  }
  /// p in (0, 1]; returns 0 when nothing was recorded.  The answer is
  /// the midpoint of the bucket holding the p-quantile, capped at the
  /// largest sample.
  double percentile(double p) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_nanos_{0};
  std::atomic<std::uint64_t> max_nanos_{0};
};

struct EndpointMetrics {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  LatencyHistogram latency;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; the returned reference stays valid for the
  /// registry's lifetime.
  EndpointMetrics& endpoint(const std::string& name);

  /// Find-or-create a named monotonic counter (degraded responses,
  /// analysis timeouts, shed requests, ...); same lifetime guarantee.
  std::atomic<std::uint64_t>& counter(const std::string& name);

  /// Current value of a named counter; 0 when it was never bumped.
  std::uint64_t counter_value(const std::string& name) const;

  std::int64_t in_flight() const { return in_flight_.load(); }
  double uptime_seconds() const { return uptime_.elapsed_seconds(); }

  /// Emit {"uptime_seconds":..,"in_flight":..,"endpoints":{...}} fields
  /// into an already-open JSON object.
  void write_json(JsonWriter& json) const;

  /// Human-readable shutdown summary (one line per endpoint).
  std::string summary() const;

  /// RAII request tracker: bumps the in-flight gauge, then records
  /// latency + outcome on destruction.
  class ScopedRequest {
   public:
    ScopedRequest(MetricsRegistry& registry, EndpointMetrics& endpoint);
    ~ScopedRequest();
    ScopedRequest(const ScopedRequest&) = delete;
    ScopedRequest& operator=(const ScopedRequest&) = delete;
    void mark_error() { error_ = true; }

   private:
    MetricsRegistry& registry_;
    EndpointMetrics& endpoint_;
    Stopwatch watch_;
    bool error_ = false;
  };

 private:
  std::vector<std::pair<std::string, const EndpointMetrics*>>
  sorted_endpoints() const;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<EndpointMetrics>> endpoints_;
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>>
      counters_;
  std::atomic<std::int64_t> in_flight_{0};
  Stopwatch uptime_;
};

}  // namespace gpuperf::serve
