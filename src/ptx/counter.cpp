#include "ptx/counter.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "ptx/parser.hpp"

namespace gpuperf::ptx {

namespace {

/// FNV-1a over the module's textual form: a cheap, stable fingerprint
/// that keeps memo entries from distinct modules apart even when kernel
/// names collide.
std::uint64_t module_fingerprint(const PtxModule& module) {
  const std::string text = module.to_ptx();
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Slice-read parameter values a key holds inline.  No library kernel
/// reads more; a kernel that does keeps the rest in LaunchKey::more.
constexpr std::size_t kInlineValues = 4;

/// Memo key: every input that can change a launch's counts.  Compared
/// field by field; `hash`, computed once when the key is made, only
/// picks a shard and a bucket.
struct LaunchKey {
  std::uint64_t hash = 0;
  std::uint64_t module = 0;  // module fingerprint
  std::size_t kernel = 0;    // index into the module's kernels
  std::int64_t grid = 0;
  std::int64_t block = 0;
  /// Values of the executor's slice_params() slots, in that order: the
  /// first kInlineValues here (zero past the last), the rest in `more`.
  std::array<std::int64_t, kInlineValues> values{};
  std::vector<std::int64_t> more;

  bool operator==(const LaunchKey&) const = default;
};

std::uint64_t hash_step(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// splitmix64's finalizer, so every bit of the result (the shard pick
/// uses the low ones) depends on every field.
std::uint64_t hash_finish(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

struct LaunchKeyHash {
  std::size_t operator()(const LaunchKey& key) const { return key.hash; }
};

/// The launch memo: plain counts in a sharded LRU, one node allocation
/// per entry.  A miss inserts its entry in flight and runs outside the
/// shard lock; a lookup that finds the entry in flight waits on the
/// shard's condition variable (single flight).  A run that throws
/// removes its entry, so failures are never cached, and wakes the
/// waiters, which look the key up again.  Each call counts one hit (it
/// returned stored counts) or one miss (it ran); a probe that finds
/// nothing stored counts nothing.
class LaunchMemo {
 public:
  /// `capacity` is the total entry budget, split evenly across
  /// `n_shards`; entries in flight are never evicted.
  LaunchMemo(std::size_t capacity, std::size_t n_shards)
      : per_shard_((capacity + n_shards - 1) / n_shards), shards_(n_shards) {
    for (Shard& shard : shards_) shard.map.reserve(per_shard_ + 1);
  }

  /// Non-blocking probe: true, with `out` set, when `key` holds
  /// finished counts.
  bool try_get(const LaunchKey& key, ExecutionCounts& out) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end() || !it->second.ready) return false;
    shard.touch(it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    out = it->second.counts;
    return true;
  }

  /// The counts of `key`, from the memo or from `compute()`.
  template <typename Compute>
  ExecutionCounts get_or_compute(const LaunchKey& key,
                                 const Compute& compute) {
    Shard& shard = shard_for(key);
    std::uint64_t generation = 0;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      for (auto it = shard.map.find(key); it != shard.map.end();
           it = shard.map.find(key)) {
        if (it->second.ready) {
          shard.touch(it->second);
          hits_.fetch_add(1, std::memory_order_relaxed);
          return it->second.counts;
        }
        shard.done.wait(lock);
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      generation = ++generation_;
      insert(shard, key, generation);
    }
    try {
      const ExecutionCounts counts = compute();
      finish(shard, key, generation, &counts);
      return counts;
    } catch (...) {
      finish(shard, key, generation, nullptr);
      throw;
    }
  }

  void clear() {
    for (Shard& shard : shards_) {
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.map.clear();
        shard.newest = shard.oldest = nullptr;
      }
      shard.done.notify_all();
    }
  }

  /// Every field but parallel_tasks.
  InstructionCounter::MemoStats stats() const {
    InstructionCounter::MemoStats out;
    out.hits = hits_.load();
    out.misses = misses_.load();
    out.evictions = evictions_.load();
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      out.size += shard.map.size();
    }
    return out;
  }

 private:
  struct Entry {
    ExecutionCounts counts;
    std::uint64_t generation = 0;
    bool ready = false;
    const LaunchKey* key = nullptr;  // the map's copy
    Entry* newer = nullptr;          // LRU links
    Entry* older = nullptr;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable done;  // an entry finished or was removed
    std::unordered_map<LaunchKey, Entry, LaunchKeyHash> map;
    Entry* newest = nullptr;
    Entry* oldest = nullptr;

    void unlink(Entry& e) {
      (e.newer ? e.newer->older : newest) = e.older;
      (e.older ? e.older->newer : oldest) = e.newer;
      e.newer = e.older = nullptr;
    }
    void link_newest(Entry& e) {
      e.older = newest;
      (newest ? newest->newer : oldest) = &e;
      newest = &e;
    }
    void touch(Entry& e) {
      if (newest == &e) return;
      unlink(e);
      link_newest(e);
    }
  };

  Shard& shard_for(const LaunchKey& key) {
    return shards_[(key.hash >> 32) % shards_.size()];
  }

  /// Insert `key` in flight under the shard lock, then evict the least
  /// recently used finished entries past the shard's budget.
  void insert(Shard& shard, const LaunchKey& key, std::uint64_t generation) {
    const auto it = shard.map.try_emplace(key).first;
    Entry& entry = it->second;
    entry.generation = generation;
    entry.key = &it->first;
    shard.link_newest(entry);
    for (Entry* victim = shard.oldest;
         victim != nullptr && shard.map.size() > per_shard_;) {
      Entry* next = victim->newer;
      if (victim->ready) {
        shard.unlink(*victim);
        shard.map.erase(shard.map.find(*victim->key));
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      victim = next;
    }
  }

  /// Store a finished run's counts, or remove the entry of one that
  /// threw — unless the entry is gone or a newer one took its key (a
  /// clear() ran meanwhile) — and wake the shard's waiters.
  void finish(Shard& shard, const LaunchKey& key, std::uint64_t generation,
              const ExecutionCounts* counts) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.map.find(key);
      if (it != shard.map.end() && it->second.generation == generation) {
        if (counts != nullptr) {
          it->second.counts = *counts;
          it->second.ready = true;
        } else {
          shard.unlink(it->second);
          shard.map.erase(it);
        }
      }
    }
    shard.done.notify_all();
  }

  const std::size_t per_shard_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// Process-wide launch-result memo.  Leaked intentionally: executors
/// and serve sessions may consult it during static destruction.
LaunchMemo& memo() {
  static auto* cache = new LaunchMemo(4096, 16);
  return *cache;
}

std::atomic<std::uint64_t> g_parallel_tasks{0};

/// count() fans its memo misses out across the shared pool only when
/// there are at least this many; below it the queue/join overhead
/// outweighs the win.
constexpr std::size_t kParallelThreshold = 8;

/// A model's launches partitioned by memo key (one library, so the
/// module fingerprint is common), groups numbered in first-occurrence
/// order.
struct LaunchGroups {
  struct Group {
    std::size_t first = 0;   // its first launch
    std::size_t kernel = 0;  // index into the module's kernels
    std::uint64_t hash = 0;  // launch_hash() of its launches
  };
  std::vector<std::uint32_t> group_of;  // per launch
  std::vector<Group> groups;
};

}  // namespace

struct InstructionCounter::Library {
  PtxModule module;
  std::vector<SymbolicExecutor> executors;  // parallel to module.kernels
  /// Kernel index by name, for launches without a usable
  /// KernelLaunch::kernel_index.
  std::unordered_map<std::string, std::size_t> kernel_index;
  std::uint64_t fingerprint = 0;

  explicit Library(PtxModule mod)
      : module(std::move(mod)), fingerprint(module_fingerprint(module)) {
    executors.reserve(module.kernels.size());
    for (std::size_t k = 0; k < module.kernels.size(); ++k) {
      executors.emplace_back(module.kernels[k]);
      kernel_index.emplace(module.kernels[k].name, k);
    }
  }

  /// Index of the kernel `launch` runs, once the launch is known to
  /// bind every one of its parameters.  A launch codegen stamped with
  /// its library index resolves by one name comparison, not a hash.
  std::size_t resolve(const KernelLaunch& launch) const {
    auto k = static_cast<std::size_t>(launch.kernel_index);
    if (launch.kernel_index < 0 || k >= module.kernels.size() ||
        module.kernels[k].name != launch.kernel) {
      const auto it = kernel_index.find(launch.kernel);
      GP_CHECK_MSG(it != kernel_index.end(),
                   "no executor for kernel '" << launch.kernel << "'");
      k = it->second;
    }
    check_arity(module.kernels[k], launch);
    return k;
  }

  /// Hash of everything a memo key holds but the module fingerprint.
  std::uint64_t launch_hash(std::size_t kernel,
                            const KernelLaunch& launch) const {
    std::uint64_t h =
        hash_step(kernel, static_cast<std::uint64_t>(launch.grid_dim));
    h = hash_step(h, static_cast<std::uint64_t>(launch.block_dim));
    for (const std::size_t slot : executors[kernel].slice_params())
      h = hash_step(h, static_cast<std::uint64_t>(launch.args[slot]));
    return h;
  }

  /// Key on everything that can influence the result: the module, the
  /// kernel, the grid geometry and the values of the parameters the
  /// slice actually reads.  Pointer-typed arguments (synthetic buffer
  /// addresses) are off the slice and deliberately excluded — launches
  /// that differ only in buffers share one entry.
  LaunchKey key(std::size_t kernel, const KernelLaunch& launch,
                std::uint64_t launch_hash) const {
    LaunchKey out;
    out.hash = hash_finish(hash_step(launch_hash, fingerprint));
    out.module = fingerprint;
    out.kernel = kernel;
    out.grid = launch.grid_dim;
    out.block = launch.block_dim;
    const std::vector<std::size_t>& slots = executors[kernel].slice_params();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::int64_t v = launch.args[slots[i]];
      if (i < kInlineValues)
        out.values[i] = v;
      else
        out.more.push_back(v);
    }
    return out;
  }

  /// Group ids by launch, assigned in first-occurrence order, through
  /// one open-addressing table of group ids: a launch hashes its
  /// integer key once and compares field by field only against a group
  /// of equal hash.
  LaunchGroups group(const std::vector<KernelLaunch>& launches) const {
    constexpr std::uint32_t kEmpty = UINT32_MAX;
    const std::size_t n = launches.size();
    LaunchGroups out;
    out.group_of.resize(n);
    out.groups.reserve(n);
    const std::size_t mask = std::bit_ceil(2 * n + 1) - 1;
    std::vector<std::uint32_t> table(mask + 1, kEmpty);
    for (std::size_t i = 0; i < n; ++i) {
      const KernelLaunch& launch = launches[i];
      const std::size_t kernel = resolve(launch);
      const std::uint64_t h = launch_hash(kernel, launch);
      const std::vector<std::size_t>& slots =
          executors[kernel].slice_params();
      const auto same_key = [&](const LaunchGroups::Group& g) {
        const KernelLaunch& other = launches[g.first];
        if (g.hash != h || g.kernel != kernel ||
            other.grid_dim != launch.grid_dim ||
            other.block_dim != launch.block_dim)
          return false;
        for (const std::size_t slot : slots)
          if (other.args[slot] != launch.args[slot]) return false;
        return true;
      };
      std::size_t pos = hash_finish(h) & mask;
      while (table[pos] != kEmpty && !same_key(out.groups[table[pos]]))
        pos = (pos + 1) & mask;
      if (table[pos] == kEmpty) {
        table[pos] = static_cast<std::uint32_t>(out.groups.size());
        out.groups.push_back({i, kernel, h});
      }
      out.group_of[i] = table[pos];
    }
    return out;
  }
};

InstructionCounter::InstructionCounter() {
  // The analysis operates on *parsed* PTX, exactly as it would on nvcc
  // output; the parse and the per-kernel slices happen once per
  // process (CodeGenerator::parsed_kernel_library) and are shared by
  // every default-constructed counter.
  static const std::shared_ptr<const Library> shared_library =
      std::make_shared<const Library>(CodeGenerator::parsed_kernel_library());
  lib_ = shared_library;
}

InstructionCounter::InstructionCounter(const PtxModule& module)
    : lib_(std::make_shared<const Library>(module)) {}

ExecutionCounts InstructionCounter::count_launch(
    const KernelLaunch& launch, const Deadline& deadline) const {
  const Library& lib = *lib_;
  const std::size_t kernel = lib.resolve(launch);
  return memo().get_or_compute(
      lib.key(kernel, launch, lib.launch_hash(kernel, launch)),
      [&] { return lib.executors[kernel].run(launch, deadline); });
}

ModelInstructionProfile InstructionCounter::count(
    const CompiledModel& model, const Deadline& deadline) const {
  const Library& lib = *lib_;
  const std::vector<KernelLaunch>& launches = model.launches;
  const LaunchGroups grouped = lib.group(launches);
  const std::vector<LaunchGroups::Group>& groups = grouped.groups;

  // One non-blocking probe per distinct key; only the misses (absent or
  // still being computed elsewhere) go through single-flight
  // get_or_compute.
  std::vector<ExecutionCounts> results(groups.size());
  std::vector<LaunchKey> keys;  // of the misses
  std::vector<std::size_t> misses;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const LaunchGroups::Group& group = groups[g];
    LaunchKey key = lib.key(group.kernel, launches[group.first], group.hash);
    if (memo().try_get(key, results[g])) continue;
    if (keys.empty()) {
      keys.reserve(groups.size() - g);
      misses.reserve(groups.size() - g);
    }
    keys.push_back(std::move(key));
    misses.push_back(g);
  }
  const auto resolve_miss = [&](std::size_t m, const Deadline& budget) {
    const LaunchGroups::Group& group = groups[misses[m]];
    results[misses[m]] = memo().get_or_compute(keys[m], [&] {
      return lib.executors[group.kernel].run(launches[group.first], budget);
    });
  };

  ThreadPool& pool = ThreadPool::shared();
  if (misses.size() >= kParallelThreshold && pool.size() > 1) {
    // Deadline charges are not thread-safe on a shared object; each
    // task charges a private copy and the surplus is folded back into
    // the caller's deadline after the join, so total step accounting
    // matches the serial path.
    const Deadline base = deadline;
    const std::uint64_t base_steps = base.steps_charged();
    std::atomic<std::uint64_t> task_steps{0};
    pool.parallel_for(misses.size(), [&](std::size_t m) {
      Deadline task_deadline = base;
      resolve_miss(m, task_deadline);
      task_steps.fetch_add(task_deadline.steps_charged() - base_steps,
                           std::memory_order_relaxed);
      g_parallel_tasks.fetch_add(1, std::memory_order_relaxed);
    });
    const std::uint64_t folded = task_steps.load();
    if (folded > 0) deadline.charge("dca.count", folded);
  } else {
    for (std::size_t m = 0; m < misses.size(); ++m)
      resolve_miss(m, deadline);
  }

  // Deterministic reduction in launch order, independent of which
  // thread produced which result.
  const std::size_t n = launches.size();
  ModelInstructionProfile profile;
  profile.model_name = model.model_name;
  profile.launch_count = static_cast<std::int64_t>(n);
  profile.per_launch.reserve(n);
  profile.per_launch_class.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ExecutionCounts& counts = results[grouped.group_of[i]];
    profile.total_instructions += counts.total;
    for (std::size_t c = 0; c < kOpClassCount; ++c)
      profile.by_class[c] += counts.by_class[c];
    profile.total_threads += launches[i].total_threads();
    profile.per_launch.push_back(counts.total);
    profile.per_launch_class.push_back(counts.by_class);
  }
  return profile;
}

InstructionCounter::MemoStats InstructionCounter::memo_stats() {
  MemoStats out = memo().stats();
  out.parallel_tasks = g_parallel_tasks.load();
  return out;
}

void InstructionCounter::reset_memo() { memo().clear(); }

}  // namespace gpuperf::ptx
