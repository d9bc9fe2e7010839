#include "serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/strings.hpp"
#include "serve/protocol.hpp"

namespace gpuperf::serve {

namespace {

// Past this many nanoseconds (about 146 years) a sample saturates, so
// the integer conversion and the running total stay defined.
constexpr double kSaturateNanos = 4.6e18;

constexpr int kSubBucketBits = 5;
constexpr int kSubBuckets = 1 << kSubBucketBits;
// Samples below 2^kMaxBits ns get a bucket of their own range.
constexpr int kMaxBits = 37;
static_assert(LatencyHistogram::kBuckets ==
              (kMaxBits - kSubBucketBits + 1) * kSubBuckets);

int bucket_for(std::uint64_t nanos) {
  if (nanos >> kMaxBits != 0) return LatencyHistogram::kBuckets - 1;
  // Keep the top kSubBucketBits + 1 bits: the leading one picks the
  // power-of-two range, the bits after it the linear sub-bucket.
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(nanos)) -
                      (kSubBucketBits + 1));
  return shift * kSubBuckets + static_cast<int>(nanos >> shift);
}

std::uint64_t bucket_lower_nanos(int bucket) {
  if (bucket < kSubBuckets) return static_cast<std::uint64_t>(bucket);
  const int shift = bucket / kSubBuckets - 1;
  return static_cast<std::uint64_t>(bucket % kSubBuckets + kSubBuckets)
         << shift;
}

std::uint64_t bucket_width_nanos(int bucket) {
  return std::uint64_t{1} << std::max(0, bucket / kSubBuckets - 1);
}

}  // namespace

void LatencyHistogram::record(double seconds) {
  // NaN and negative samples count as 0.
  const double ns =
      seconds > 0.0 ? std::min(seconds * 1e9, kSaturateNanos) : 0.0;
  const auto nanos = static_cast<std::uint64_t>(ns);
  buckets_[bucket_for(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  std::uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_nanos_.compare_exchange_weak(seen, nanos,
                                           std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::mean_seconds() const {
  const std::uint64_t n = count_.load();
  return n == 0 ? 0.0 : total_seconds() / static_cast<double>(n);
}

double LatencyHistogram::percentile(double p) const {
  const std::uint64_t n = count_.load();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(p * static_cast<double>(n))));
  const double max_nanos = static_cast<double>(max_nanos_.load());
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets - 1; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      const double mid =
          static_cast<double>(bucket_lower_nanos(b)) +
          0.5 * static_cast<double>(bucket_width_nanos(b));
      return std::min(mid, max_nanos) * 1e-9;
    }
  }
  return max_nanos * 1e-9;  // the open-ended last bucket
}

EndpointMetrics& MetricsRegistry::endpoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = endpoints_[name];
  if (!slot) slot = std::make_unique<EndpointMetrics>();
  return *slot;
}

std::atomic<std::uint64_t>& MetricsRegistry::counter(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<std::atomic<std::uint64_t>>(0);
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->load();
}

std::vector<std::pair<std::string, const EndpointMetrics*>>
MetricsRegistry::sorted_endpoints() const {
  std::vector<std::pair<std::string, const EndpointMetrics*>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(endpoints_.size());
  for (const auto& [name, metrics] : endpoints_)
    out.emplace_back(name, metrics.get());
  return out;  // std::map iteration order is already sorted
}

void MetricsRegistry::write_json(JsonWriter& json) const {
  json.field("uptime_seconds", uptime_seconds());
  json.field("in_flight", static_cast<std::int64_t>(in_flight()));
  json.begin_object("endpoints");
  for (const auto& [name, metrics] : sorted_endpoints()) {
    json.begin_object(name);
    json.field("requests", metrics->requests.load());
    json.field("errors", metrics->errors.load());
    json.field("p50_ms", metrics->latency.percentile(0.50) * 1e3);
    json.field("p95_ms", metrics->latency.percentile(0.95) * 1e3);
    json.field("mean_ms", metrics->latency.mean_seconds() * 1e3);
    json.field("max_ms", metrics->latency.max_seconds() * 1e3);
    json.end_object();
  }
  json.end_object();
  json.begin_object("counters");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, value] : counters_)
      json.field(name, value->load());
  }
  json.end_object();
}

std::string MetricsRegistry::summary() const {
  std::ostringstream os;
  os << "served for " << fixed(uptime_seconds(), 1) << " s\n";
  for (const auto& [name, metrics] : sorted_endpoints()) {
    const std::uint64_t n = metrics->requests.load();
    if (n == 0) continue;
    os << "  " << name << ": " << n << " requests, "
       << metrics->errors.load() << " errors, p50 "
       << fixed(metrics->latency.percentile(0.50) * 1e3, 3) << " ms, p95 "
       << fixed(metrics->latency.percentile(0.95) * 1e3, 3) << " ms\n";
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool any = false;
    for (const auto& [name, value] : counters_) {
      const std::uint64_t v = value->load();
      if (v == 0) continue;
      os << (any ? ", " : "  ") << name << " " << v;
      any = true;
    }
    if (any) os << "\n";
  }
  return os.str();
}

MetricsRegistry::ScopedRequest::ScopedRequest(MetricsRegistry& registry,
                                              EndpointMetrics& endpoint)
    : registry_(registry), endpoint_(endpoint) {
  registry_.in_flight_.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::ScopedRequest::~ScopedRequest() {
  endpoint_.requests.fetch_add(1, std::memory_order_relaxed);
  if (error_) endpoint_.errors.fetch_add(1, std::memory_order_relaxed);
  endpoint_.latency.record(watch_.elapsed_seconds());
  registry_.in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace gpuperf::serve
