// Model-level dynamic instruction counting: parses the generated PTX,
// builds one symbolic executor per kernel, runs every launch, and
// aggregates — this is the "total number of PTX instructions" predictor
// p of the paper's training vector d = (y, p, c1..cm, t).
//
// Fast path (the t_dca term of the paper's T_est = t_dca + n*t_pm):
//   - the default constructor shares one process-wide parsed kernel
//     library and its per-kernel executors (parse + slice once, ever);
//   - launch results are memoized in a process-wide sharded
//     single-flight cache keyed on an integer tuple (module
//     fingerprint, kernel index, grid, block, the values of the
//     parameter slots the slice reads) — launches differing only in
//     buffer pointers hit the same entry;
//   - count() groups a model's launches by that key, probes the memo
//     once per distinct key, runs only the misses (fanned across
//     ThreadPool::shared() when there are enough of them) and sums the
//     results in launch order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ptx/codegen.hpp"
#include "ptx/symexec.hpp"

namespace gpuperf::ptx {

struct ModelInstructionProfile {
  std::string model_name;
  std::int64_t total_instructions = 0;
  std::array<std::int64_t, kOpClassCount> by_class{};
  std::int64_t total_threads = 0;
  std::int64_t launch_count = 0;
  /// Per-launch totals, parallel to CompiledModel::launches.
  std::vector<std::int64_t> per_launch;
  /// Per-launch per-class counts.
  std::vector<std::array<std::int64_t, kOpClassCount>> per_launch_class;
};

class InstructionCounter {
 public:
  /// Binds to the process-wide shared kernel library analysis (built on
  /// first use); construction is O(1) afterwards — no PTX re-parse, no
  /// slice recomputation.
  InstructionCounter();

  /// Analyze a caller-provided, already-parsed module instead (no text
  /// round trip).  The analysis is private to this counter but launch
  /// results still share the process-wide memo (the key includes the
  /// module fingerprint, so distinct modules never collide).
  explicit InstructionCounter(const PtxModule& module);

  /// `deadline` spans the whole model (every launch shares it); expiry
  /// throws AnalysisTimeout from inside the symbolic executor.  Each
  /// distinct memo key costs one memo lookup per call; when enough of
  /// them miss, the symbolic runs are spread across
  /// ThreadPool::shared(), each task charging a private deadline copy
  /// whose totals are folded back afterwards, so step accounting
  /// matches the serial path.  GP_CHECK-fails on a launch of an
  /// unknown kernel or with the wrong argument count.
  ModelInstructionProfile count(const CompiledModel& model,
                                const Deadline& deadline = {}) const;

  /// Counts for a single launch (exposed for tests and benches).
  /// Memoized: concurrent calls with the same key execute the symbolic
  /// run once (single-flight); a run that throws (timeout, unsupported
  /// fragment) is never cached and later calls retry.
  ExecutionCounts count_launch(const KernelLaunch& launch,
                               const Deadline& deadline = {}) const;

  /// Cumulative process-wide fast-path statistics: `hits` and `misses`
  /// count memo lookups (one per distinct key per count(), one per
  /// count_launch()), `parallel_tasks` the symbolic runs count() handed
  /// to the pool.
  struct MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::uint64_t parallel_tasks = 0;
  };
  static MemoStats memo_stats();

  /// Drop every memoized launch result (benchmarks; tests needing a
  /// cold cache).  Hit/miss/parallel counters keep accumulating.
  static void reset_memo();

 private:
  struct Library;  // parsed module + executors + fingerprint
  std::shared_ptr<const Library> lib_;
};

}  // namespace gpuperf::ptx
