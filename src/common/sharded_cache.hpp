// Sharded single-flight LRU cache, built for the serve layer
// (static-analysis reports, DCA feature vectors); the `Key`/`Hash`
// parameters take keys other than strings.
//
// Design: N independent shards (hash of the key picks one), each a
// mutex-guarded LRU list + map.  Entries hold shared_futures so that
// concurrent misses on the same key compute once and everyone else
// blocks on the winner ("single-flight").  A computation that throws
// publishes the exception to current waiters and erases the entry
// (generation-tagged, so it never removes a newer entry) — failed or
// timed-out computes are retried, never cached.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace gpuperf {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;
};

template <typename Value, typename Key = std::string,
          typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  /// `capacity` is the total entry budget, split evenly across
  /// `n_shards` (each shard keeps at least one slot).
  explicit ShardedLruCache(std::size_t capacity, std::size_t n_shards = 8)
      : per_shard_capacity_(
            std::max<std::size_t>(1, (capacity + n_shards - 1) /
                                         std::max<std::size_t>(1, n_shards))),
        shards_(std::max<std::size_t>(1, n_shards)) {
    GP_CHECK(capacity > 0);
  }

  /// Look up `key`; on a miss run `compute` (outside the shard lock)
  /// and publish the result.  Concurrent callers of the same missing
  /// key block on the first caller's computation instead of repeating
  /// it.  A computation that throws is erased so later calls retry.
  ValuePtr get_or_compute(const Key& key,
                          const std::function<ValuePtr()>& compute) {
    Shard& shard = shard_for(key);
    std::promise<ValuePtr> promise;
    std::shared_future<ValuePtr> future;
    std::uint64_t gen = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (auto* entry = find_and_touch(shard, key)) {
        ++hits_;
        future = entry->future;
      } else {
        ++misses_;
        future = promise.get_future().share();
        gen = insert_locked(shard, key, future);
      }
    }
    if (!gen) return future.get();
    try {
      ValuePtr value = compute();
      GP_CHECK_MSG(value != nullptr, "cache compute returned null");
      promise.set_value(value);
      return value;
    } catch (...) {
      promise.set_exception(std::current_exception());
      erase_generation(shard, key, gen);
      throw;
    }
  }

  /// Non-blocking probe: the value when `key` holds a finished
  /// computation (counted as a hit), nullptr at once when it is absent
  /// or still being computed (counted as nothing; a get_or_compute()
  /// that follows counts the hit or miss).
  ValuePtr try_get(const Key& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return nullptr;
    const std::shared_future<ValuePtr>& future = it->second.future;
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      return nullptr;
    ValuePtr value;
    try {
      value = future.get();
    } catch (...) {
      return nullptr;  // a failed compute, about to erase itself
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    ++hits_;
    return value;
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.clear();
      shard.lru.clear();
    }
  }

  CacheStats stats() const {
    CacheStats out;
    out.hits = hits_.load();
    out.misses = misses_.load();
    out.evictions = evictions_.load();
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      out.size += shard.map.size();
    }
    return out;
  }

  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    std::shared_future<ValuePtr> future;
    typename std::list<Key>::iterator lru_it;
    std::uint64_t generation = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Key> lru;  // front = most recently used
    std::unordered_map<Key, Entry, Hash> map;
  };

  Shard& shard_for(const Key& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }

  Entry* find_and_touch(Shard& shard, const Key& key) {
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return nullptr;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return &it->second;
  }

  /// Insert under the shard lock; evicts from the LRU tail if over
  /// budget.  Returns the new entry's generation tag (never 0).
  std::uint64_t insert_locked(Shard& shard, const Key& key,
                              std::shared_future<ValuePtr> future) {
    shard.lru.push_front(key);
    const std::uint64_t gen = ++generation_;
    Entry entry;
    entry.future = std::move(future);
    entry.lru_it = shard.lru.begin();
    entry.generation = gen;
    shard.map[key] = std::move(entry);
    while (shard.map.size() > per_shard_capacity_) {
      shard.map.erase(shard.lru.back());
      shard.lru.pop_back();
      ++evictions_;
    }
    return gen;
  }

  /// Remove the entry for `key` only if it is still the generation we
  /// inserted (a failed compute must not erase a newer entry).
  void erase_generation(Shard& shard, const Key& key,
                        std::uint64_t gen) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.generation != gen) return;
    shard.lru.erase(it->second.lru_it);
    shard.map.erase(it);
  }

  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace gpuperf
