// Fleet-scale design-space exploration (docs/DSE.md): evaluate a model
// set × device table cross product under user constraints and return
// ranked recommendations.  This is the paper's Table IV scenario
// productized — one DCA pass per distinct model (a repeated name is
// analyzed once), and every (model, device) cell answered by the
// trained estimator instead of a profiler.  Features are the only thing
// worth keeping between runs (t_dca dominates T_est = t_dca + n·t_pm):
// with a feature store the next run performs no DCA, and every cell is
// predicted afresh.  A topology whose features the caller already holds
// (Options::probe) is answered on the calling thread; only the misses,
// each a DCA pass, fan out over the thread pool.
//
// A warm sweep costs its predictions: each name is looked up once, to
// its static zoo or device-table entry; the plain results live in one
// flat topologies × devices table; and the cells view the static names,
// so the sweep's heap blocks do not grow with its cells
// (docs/PERF.md §8).
//
// Robustness contract (PR-3 semantics): a sweep with one pathological
// model still returns every other cell.  Per-cell status is `ok`
// (full DCA-backed prediction), `degraded` (feature acquisition timed
// out or failed; core::static_only_features fallback) or `failed` (no
// prediction; `error` says why).  Only full-DCA features enter the
// feature store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cnn/static_analyzer.hpp"
#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "core/dse.hpp"
#include "core/estimator.hpp"
#include "core/features.hpp"
#include "dse/constraints.hpp"
#include "registry/feature_store.hpp"

namespace gpuperf::dse {

/// One bulk sweep: which models on which devices, under which
/// constraints and analysis budget.
struct SweepRequest {
  /// Zoo model names (duplicates allowed — a repeated name is analyzed
  /// once).  Must not be empty.
  std::vector<std::string> models;
  /// Device short ids, each at most once; empty = the paper's
  /// seven-device Table IV fleet.
  std::vector<std::string> devices;
  Constraints constraints;
  /// Analysis budget.  Wall clock is shared across the sweep; the step
  /// budget applies per topology (each topology charges its own copy —
  /// a shared mutable counter would race across pool workers).
  Deadline deadline;
  /// Fall back to static-only features when DCA times out or fails
  /// (cells marked degraded) instead of failing those cells.
  bool allow_degrade = true;
};

struct SweepResult {
  /// Model-major, device-minor — request order, deterministic.
  std::vector<SweepCell> cells;
  /// Per-device verdicts, feasible-first in ranking order.
  std::vector<DeviceSummary> ranking;
  /// Devices on the Pareto frontier, in ranking order.
  std::vector<std::string> pareto;

  // ---- sweep telemetry ----------------------------------------------
  std::size_t unique_topologies = 0;
  /// Requested models that shared a fingerprint with an earlier one.
  std::size_t duplicate_models = 0;
  /// Topologies answered from full-DCA features, however they were
  /// acquired: a fresh DCA pass, a feature cache or the feature store.
  /// A warm sweep counts every topology; whether DCA actually ran shows
  /// in the DCA memo counters (and the serve session's dca_compute_count).
  std::size_t features_computed = 0;
  std::size_t degraded_cells = 0;
  std::size_t failed_cells = 0;
  double elapsed_seconds = 0.0;

  bool feasible() const;
};

/// Table IV timing rows (T_est = t_dca + n·t_pm vs T_measur = n·t_p)
/// for a whole model set — the batch face of
/// core::DseExplorer::time_model, used by bench/table4_dse_speedup.
/// Deliberately serial: each row measures its own wall times, and
/// parallel contention would inflate them.
std::vector<core::DseTiming> time_models(
    const core::PerformanceEstimator& estimator,
    const std::vector<std::string>& models,
    const std::vector<std::string>& devices);

class SweepEngine {
 public:
  /// Every knob is optional: a default-constructed Options gives a
  /// shared-pool engine that computes features itself and keeps none.
  struct Options {
    /// Persistent feature store (not owned; may be nullptr), keyed by
    /// the plan's topology hashes.  Used only when the engine computes
    /// features itself (no feature_source), through
    /// FeatureStore::get_or_compute: a hit skips the DCA pass, a fresh
    /// full-DCA result is put, and store I/O errors never fail a cell.
    registry::FeatureStore* store = nullptr;
    /// Worker pool (not owned) for the probe's misses; nullptr =
    /// ThreadPool::shared().
    ThreadPool* pool = nullptr;
    /// External feature source, e.g. the serve session's acquisition
    /// (circuit breaker, single-flight feature cache, persistent
    /// store).  Called once per distinct topology the probe misses;
    /// may throw AnalysisTimeout, an open-breaker error or any analysis
    /// error.  nullptr = the engine runs its own extractor.
    using FeatureSource =
        std::function<std::shared_ptr<const core::ModelFeatures>(
            const std::string& zoo_model, const Deadline& deadline)>;
    FeatureSource feature_source;
    /// Zoo name → FeatureStore::topology_hash, e.g. the serve session's
    /// memo.  nullptr = build and hash each model, keeping the build for
    /// the engine's own analysis.
    using HashSource = std::function<std::uint64_t(const std::string&)>;
    HashSource topology_hash;
    /// Zoo name → the features already held for it, or nullptr, e.g.
    /// the serve session's feature-cache try_get.  Must never block or
    /// compute.  A hit is answered on the calling thread, in topology
    /// order, and skips the feature source; the misses fan out over the
    /// pool.  nullptr = every topology is a miss.
    using Probe = std::function<std::shared_ptr<const core::ModelFeatures>(
        const std::string& zoo_model)>;
    Probe probe;
  };

  /// The estimator is shared, not owned, and must stay alive (and
  /// untouched) for the engine's lifetime — serve callers pass a
  /// snapshot shared_ptr's referent and hold the snapshot.
  explicit SweepEngine(const core::PerformanceEstimator& estimator);
  SweepEngine(const core::PerformanceEstimator& estimator,
              Options options);

  /// Run one sweep.  Throws CheckError on an empty model list, a device
  /// listed twice or a constraint that is negative or not finite
  /// (check_constraints), and on an unknown name with exactly the
  /// message "unknown model '<name>'" or "unknown device '<name>'" (the
  /// `dse` verb's wire text: the engine is the verb's one name lookup).
  /// Per-cell analysis failures do NOT throw (they become
  /// degraded/failed cells).  Safe to call concurrently.
  SweepResult run(const SweepRequest& request) const;

 private:
  const core::PerformanceEstimator& estimator_;
  registry::FeatureStore* store_;
  ThreadPool* pool_;
  Options::FeatureSource feature_source_;
  Options::HashSource topology_hash_;
  Options::Probe probe_;
  core::FeatureExtractor extractor_;
  cnn::StaticAnalyzer analyzer_;
};

}  // namespace gpuperf::dse
