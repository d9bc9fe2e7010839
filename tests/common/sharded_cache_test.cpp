#include "common/sharded_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gpuperf {
namespace {

using IntCache = ShardedLruCache<int>;

std::shared_ptr<const int> boxed(int v) {
  return std::make_shared<const int>(v);
}

TEST(ShardedLruCache, MissThenHit) {
  IntCache cache(8, 2);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return boxed(42);
  };
  EXPECT_EQ(*cache.get_or_compute("k", compute), 42);
  EXPECT_EQ(*cache.get_or_compute("k", compute), 42);
  EXPECT_EQ(computes, 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ShardedLruCache, GetAndPut) {
  IntCache cache(8, 1);
  EXPECT_EQ(cache.get("absent"), nullptr);
  cache.put("k", boxed(7));
  ASSERT_NE(cache.get("k"), nullptr);
  EXPECT_EQ(*cache.get("k"), 7);
  cache.put("k", boxed(9));  // overwrite keeps one entry
  EXPECT_EQ(*cache.get("k"), 9);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  IntCache cache(2, 1);  // single shard, two slots
  cache.put("a", boxed(1));
  cache.put("b", boxed(2));
  EXPECT_NE(cache.get("a"), nullptr);  // touch a; b is now LRU
  cache.put("c", boxed(3));
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCache, FailedComputeIsRetried) {
  IntCache cache(8, 1);
  int attempts = 0;
  const auto failing = [&]() -> std::shared_ptr<const int> {
    ++attempts;
    throw std::runtime_error("transient");
  };
  EXPECT_THROW(cache.get_or_compute("k", failing), std::runtime_error);
  EXPECT_EQ(cache.stats().size, 0u);  // the poisoned entry is gone
  EXPECT_EQ(*cache.get_or_compute("k", [&] { return boxed(5); }), 5);
  EXPECT_EQ(attempts, 1);
}

TEST(ShardedLruCache, SingleFlightUnderConcurrency) {
  IntCache cache(64, 4);
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> seen(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto value = cache.get_or_compute("shared", [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return boxed(99);
      });
      seen[t] = *value;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);  // everyone waited on one computation
  for (const int v : seen) EXPECT_EQ(v, 99);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ShardedLruCache, ConcurrentDistinctKeys) {
  IntCache cache(256, 8);
  constexpr int kThreads = 6;
  constexpr int kKeys = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round)
        for (int k = 0; k < kKeys; ++k) {
          const std::string key = "key" + std::to_string(k);
          const auto value =
              cache.get_or_compute(key, [&] { return boxed(k); });
          EXPECT_EQ(*value, k);
        }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every key cached (hash skew across shards could in principle evict,
  // so bound rather than pin the size).
  EXPECT_GT(cache.stats().size, 0u);
  EXPECT_LE(cache.stats().size, static_cast<std::size_t>(kKeys));
}

TEST(ShardedLruCache, ClearEmptiesEveryShard) {
  IntCache cache(64, 4);
  for (int k = 0; k < 20; ++k)
    cache.put("key" + std::to_string(k), boxed(k));
  EXPECT_GT(cache.stats().size, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.get("key3"), nullptr);
}

TEST(ShardedLruCache, RejectsZeroCapacity) {
  EXPECT_THROW(IntCache(0), CheckError);
}

}  // namespace
}  // namespace gpuperf
