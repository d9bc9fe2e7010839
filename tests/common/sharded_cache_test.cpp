#include "common/sharded_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
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

TEST(ShardedLruCache, TryGetAndGetOrCompute) {
  IntCache cache(8, 1);
  EXPECT_EQ(cache.try_get("absent"), nullptr);
  EXPECT_EQ(*cache.get_or_compute("k", [] { return boxed(7); }), 7);
  ASSERT_NE(cache.try_get("k"), nullptr);
  EXPECT_EQ(*cache.try_get("k"), 7);
  // A present key is never recomputed; it keeps its one entry.
  EXPECT_EQ(*cache.get_or_compute("k", [] { return boxed(9); }), 7);
  EXPECT_EQ(cache.stats().size, 1u);
  // try_get counts a hit only when it returns a value.
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ShardedLruCache, TryGetDoesNotWaitForAnInFlightCompute) {
  IntCache cache(8, 1);
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::thread computer([&] {
    cache.get_or_compute("slow", [&] {
      std::unique_lock<std::mutex> lock(mutex);
      started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      return boxed(11);
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }
  // The compute is parked mid-flight; a blocking lookup would hang here.
  EXPECT_EQ(cache.try_get("slow"), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  computer.join();
  ASSERT_NE(cache.try_get("slow"), nullptr);
  EXPECT_EQ(*cache.try_get("slow"), 11);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  IntCache cache(2, 1);  // single shard, two slots
  cache.get_or_compute("a", [] { return boxed(1); });
  cache.get_or_compute("b", [] { return boxed(2); });
  EXPECT_NE(cache.try_get("a"), nullptr);  // touch a; b is now LRU
  cache.get_or_compute("c", [] { return boxed(3); });
  EXPECT_NE(cache.try_get("a"), nullptr);
  EXPECT_EQ(cache.try_get("b"), nullptr);
  EXPECT_NE(cache.try_get("c"), nullptr);
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
    cache.get_or_compute("key" + std::to_string(k), [k] { return boxed(k); });
  EXPECT_GT(cache.stats().size, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.try_get("key3"), nullptr);
}

TEST(ShardedLruCache, RejectsZeroCapacity) {
  EXPECT_THROW(IntCache(0), CheckError);
}

}  // namespace
}  // namespace gpuperf
