#include "ptx/counter.hpp"

#include <atomic>
#include <unordered_map>

#include "common/check.hpp"
#include "common/sharded_cache.hpp"
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

/// Memo key: every input that can change a launch's counts.  Compared
/// field by field; the hash only picks a shard and a bucket.
struct LaunchKey {
  std::uint64_t module = 0;  // module fingerprint
  std::size_t kernel = 0;    // index into the module's kernels
  std::int64_t grid = 0;
  std::int64_t block = 0;
  /// Values of the executor's slice_params() slots, in that order.
  std::vector<std::int64_t> values;

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
  std::size_t operator()(const LaunchKey& key) const {
    std::uint64_t h = hash_step(key.module, key.kernel);
    h = hash_step(h, static_cast<std::uint64_t>(key.grid));
    h = hash_step(h, static_cast<std::uint64_t>(key.block));
    for (const std::int64_t v : key.values)
      h = hash_step(h, static_cast<std::uint64_t>(v));
    return hash_finish(h);
  }
};

using LaunchMemo = ShardedLruCache<ExecutionCounts, LaunchKey, LaunchKeyHash>;

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
  std::vector<std::size_t> kernel_of;  // per launch
  std::vector<std::size_t> group_of;   // per launch
  std::vector<std::size_t> first;      // per group: its first launch
};

}  // namespace

struct InstructionCounter::Library {
  PtxModule module;
  std::vector<SymbolicExecutor> executors;  // parallel to module.kernels
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
  /// bind every one of its parameters.
  std::size_t resolve(const KernelLaunch& launch) const {
    const auto it = kernel_index.find(launch.kernel);
    GP_CHECK_MSG(it != kernel_index.end(),
                 "no executor for kernel '" << launch.kernel << "'");
    check_arity(module.kernels[it->second], launch);
    return it->second;
  }

  /// Key on everything that can influence the result: the module, the
  /// kernel, the grid geometry and the values of the parameters the
  /// slice actually reads.  Pointer-typed arguments (synthetic buffer
  /// addresses) are off the slice and deliberately excluded — launches
  /// that differ only in buffers share one entry.
  LaunchKey key(std::size_t kernel, const KernelLaunch& launch) const {
    LaunchKey out{fingerprint, kernel, launch.grid_dim, launch.block_dim, {}};
    const std::vector<std::size_t>& slots = executors[kernel].slice_params();
    out.values.reserve(slots.size());
    for (const std::size_t slot : slots)
      out.values.push_back(launch.args[slot]);
    return out;
  }

  std::shared_ptr<const ExecutionCounts> run(
      std::size_t kernel, const KernelLaunch& launch,
      const Deadline& deadline) const {
    return std::make_shared<const ExecutionCounts>(
        executors[kernel].run(launch, deadline));
  }

  /// Group ids by launch, assigned in first-occurrence order.  The
  /// index holds launch numbers and compares the launches behind them
  /// field by field, so it allocates once per group, never per launch.
  LaunchGroups group(const std::vector<KernelLaunch>& launches) const {
    const std::size_t n = launches.size();
    LaunchGroups out;
    out.kernel_of.resize(n);
    out.group_of.resize(n);
    const auto hash = [&](std::size_t i) {
      const KernelLaunch& launch = launches[i];
      std::uint64_t h = hash_step(out.kernel_of[i],
                                  static_cast<std::uint64_t>(launch.grid_dim));
      h = hash_step(h, static_cast<std::uint64_t>(launch.block_dim));
      for (const std::size_t slot : executors[out.kernel_of[i]].slice_params())
        h = hash_step(h, static_cast<std::uint64_t>(launch.args[slot]));
      return static_cast<std::size_t>(hash_finish(h));
    };
    const auto same_key = [&](std::size_t i, std::size_t j) {
      const KernelLaunch& a = launches[i];
      const KernelLaunch& b = launches[j];
      if (out.kernel_of[i] != out.kernel_of[j] || a.grid_dim != b.grid_dim ||
          a.block_dim != b.block_dim)
        return false;
      for (const std::size_t slot : executors[out.kernel_of[i]].slice_params())
        if (a.args[slot] != b.args[slot]) return false;
      return true;
    };
    std::unordered_map<std::size_t, std::size_t, decltype(hash),
                       decltype(same_key)>
        index(2 * n, hash, same_key);
    for (std::size_t i = 0; i < n; ++i) {
      out.kernel_of[i] = resolve(launches[i]);
      const auto [it, inserted] = index.try_emplace(i, out.first.size());
      if (inserted) out.first.push_back(i);
      out.group_of[i] = it->second;
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
  const std::size_t kernel = lib_->resolve(launch);
  return *memo().get_or_compute(lib_->key(kernel, launch), [&] {
    return lib_->run(kernel, launch, deadline);
  });
}

ModelInstructionProfile InstructionCounter::count(
    const CompiledModel& model, const Deadline& deadline) const {
  const Library& lib = *lib_;
  const std::vector<KernelLaunch>& launches = model.launches;
  const LaunchGroups groups = lib.group(launches);

  // One non-blocking probe per distinct key; only the misses (absent or
  // still being computed elsewhere) go through single-flight
  // get_or_compute.
  std::vector<std::shared_ptr<const ExecutionCounts>> results(
      groups.first.size());
  std::vector<std::size_t> misses;
  std::vector<LaunchKey> miss_keys;
  for (std::size_t g = 0; g < groups.first.size(); ++g) {
    const std::size_t i = groups.first[g];
    LaunchKey key = lib.key(groups.kernel_of[i], launches[i]);
    results[g] = memo().try_get(key);
    if (results[g]) continue;
    misses.push_back(g);
    miss_keys.push_back(std::move(key));
  }
  const auto resolve_miss = [&](std::size_t m, const Deadline& budget) {
    const std::size_t g = misses[m];
    const std::size_t i = groups.first[g];
    results[g] = memo().get_or_compute(miss_keys[m], [&] {
      return lib.run(groups.kernel_of[i], launches[i], budget);
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
    const ExecutionCounts& counts = *results[groups.group_of[i]];
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
  const CacheStats cache = memo().stats();
  MemoStats out;
  out.hits = cache.hits;
  out.misses = cache.misses;
  out.evictions = cache.evictions;
  out.size = cache.size;
  out.parallel_tasks = g_parallel_tasks.load();
  return out;
}

void InstructionCounter::reset_memo() { memo().clear(); }

}  // namespace gpuperf::ptx
