// In-process estimation service: everything `gpuperf serve` does minus
// the sockets.  Owns a trained PerformanceEstimator, the static-report
// and DCA-feature caches and the metrics registry; tests, examples and
// benches drive it directly, the TCP server forwards lines to it.  A
// predict runs inline on the calling thread: feature acquisition, then
// one regressor evaluation.  Predictions are never cached: an
// evaluation costs microseconds at most, DCA costs milliseconds.
//
// Every verb gets a model's features one way (acquire_features): the
// module's circuit breaker, then single-flight DCA through the feature
// cache and persistent store.  The shortcuts are models whose features
// are already cached: sweep() reads a dse topology from the cache on the
// calling thread, and try_handle() answers a predict from the features
// its probe found — the answer acquire_features would give.
// When acquisition fails, predict and rank fall back to
// core::static_only_features and dse cells degrade to the same features,
// so a degraded answer does not depend on the verb or on what the
// session analyzed before.
//
// handle() is safe to call from many threads at once: all caches are
// internally synchronized, feature computation is single-flight per
// model, and the estimator is published behind a swappable shared_ptr —
// every request takes one snapshot and uses it throughout, so a
// concurrent hot-reload (the `reload` endpoint, or registry polling)
// can never produce a torn read.  DCA features are model-intrinsic, so
// swapping in a new bundle invalidates nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cnn/static_analyzer.hpp"
#include "common/sharded_cache.hpp"
#include "common/thread_pool.hpp"
#include "core/estimator.hpp"
#include "dse/sweep.hpp"
#include "registry/feature_store.hpp"
#include "registry/registry.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace gpuperf::sandbox {
class WorkerPool;
}

namespace gpuperf::serve {

struct ServeOptions {
  std::string regressor_id = "dt";
  std::uint64_t seed = 42;
  /// Training subset (zoo names); empty = the full Table I zoo.
  std::vector<std::string> train_models;
  /// Training devices; empty = the paper's two (GTX 1080 Ti, V100S).
  std::vector<std::string> train_devices;
  /// Load a serialized model file instead of training from scratch.
  std::string tree_path;
  /// Serve from a model registry (docs/REGISTRY.md): load this
  /// directory's LATEST bundle (or `registry_version`) at startup and
  /// accept `reload` requests.  Takes precedence over tree_path and
  /// training.
  std::string registry_dir;
  /// Pin a specific bundle version at startup; empty = LATEST.
  std::string registry_version;
  /// Persistent DCA feature store: warm-start directory shared across
  /// server restarts (empty = in-memory caches only).
  std::string feature_store_dir;
  /// When > 0 and a registry is configured, poll the LATEST pointer
  /// every this many milliseconds and hot-reload on a version change.
  int registry_poll_ms = 0;
  /// Worker pool size for `dse` sweeps; 0 = hardware threads.
  std::size_t n_threads = 0;
  /// Analysis deadline applied to predict/rank requests that don't
  /// carry their own --deadline-ms; 0 = unlimited.
  int default_deadline_ms = 0;
  /// Hard cap on symbolic-execution steps per DCA pass (a second line
  /// of defense when no wall-clock deadline is set); 0 = unlimited.
  std::uint64_t dca_step_budget = 0;
  /// When DCA times out or fails, serve a static-features-only
  /// prediction marked degraded:true instead of a typed error
  /// (overridable per request with --no-degrade).
  bool degradation = true;
  /// Shed the heavy verbs (is_heavy_verb) with `overloaded` once this
  /// many requests are already in flight; 0 = unlimited.
  std::size_t max_in_flight = 0;
  /// Circuit breaker (docs/ROBUSTNESS.md): after this many consecutive
  /// DCA failures for one module fingerprint, feature acquisitions for
  /// that module (predict, rank, each dse topology) fail fast to the
  /// degraded path without re-attempting the full analysis, until a
  /// half-open probe succeeds.  0 disables the breaker.
  int breaker_threshold = 5;
  /// How long an open breaker rejects before admitting one half-open
  /// probe request.
  int breaker_cooldown_ms = 5000;
  /// Spill directory for out-of-core dependency graphs (docs/PERF.md
  /// "Graph memory layout"); empty = keep whatever $GPUPERF_DCA_SPILL
  /// seeded.  Applied process-wide at session construction.
  std::string dca_spill_dir;
  /// Resident-byte budget before graphs spill; 0 = keep the default
  /// ($GPUPERF_DCA_SPILL_BUDGET or InputLimits'
  /// max_depgraph_resident_bytes).
  std::size_t dca_spill_budget_bytes = 0;
  /// Crash isolation (docs/ROBUSTNESS.md): run every DCA pass in a
  /// sandboxed worker process instead of in-process.  A crashing,
  /// hanging or ballooning analysis then kills a disposable worker,
  /// never the server; the failure surfaces as the typed
  /// analysis_crashed error (feeding the circuit breaker and, when
  /// degradation is on, the static-features fallback).
  bool isolate_dca = false;
  /// Sandboxed worker pool size (isolate_dca only).
  int dca_workers = 2;
  /// Kill + respawn a worker whose post-request RSS exceeds this many
  /// MiB; 0 disables the ceiling.
  std::size_t dca_worker_rss_mb = 512;
  /// SIGKILL a worker that has not answered after this many wall-clock
  /// milliseconds — the backstop for hangs the cooperative Deadline
  /// cannot interrupt.
  int dca_hard_timeout_ms = 30000;
  /// Worker-side RLIMIT_AS in MiB (0 = unlimited).
  std::size_t dca_worker_as_mb = 0;
  /// Directory for the crash flight recorder: module fingerprints of
  /// requests that killed their worker, one line per event.  Empty
  /// disables the log.
  std::string dca_quarantine_dir;
};

class ServeSession {
 public:
  explicit ServeSession(ServeOptions options = {});
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Dispatch one request; never throws — failures become
  /// {"ok":false,...} responses and count as endpoint errors.
  Response handle(const Request& request);

  /// Answer `request` only if nothing in it may wait: a `ping`, or a
  /// `predict` whose model's features the feature cache already holds
  /// (a `rank`, ten tree walks, stays with the caller's workers).
  /// Anything else returns nullopt having counted nothing, for
  /// the caller to pass to handle().  An answer is handle()'s, byte for
  /// byte: the same validation, admission and endpoint metrics, with
  /// the probe's features as the acquisition (no breaker lookup, which
  /// a cached model never needs; docs/ROBUSTNESS.md).  The event loop
  /// calls this, so it never runs DCA, I/O or a reload.
  std::optional<Response> try_handle(const Request& request);

  /// Parse + handle + serialize: the line in, the JSON line out.
  std::string handle_line(const std::string& line);

  /// Convenience predict through the feature acquisition every verb
  /// uses (for the in-process examples and benches).  Throws on unknown
  /// names.
  double predict(const std::string& model, const std::string& device);

  /// Hot-swap the estimator to a registry bundle (empty = LATEST).
  /// Requires a configured registry; throws on a missing/corrupt
  /// bundle, in which case the live model keeps serving.  Returns the
  /// installed version.  In-flight predicts finish on whichever
  /// estimator they snapshotted; every predict that starts after the
  /// swap answers from the new one.
  std::string reload(const std::string& version = "");

  /// Drop every cached static report and feature vector (for
  /// cold-path measurements; counters are not reset).
  void reset_caches();

  /// The live estimator.  The reference stays valid until the next
  /// reload; concurrent readers should hold estimator_ptr() instead.
  const core::PerformanceEstimator& estimator() const;
  std::shared_ptr<const core::PerformanceEstimator> estimator_ptr() const;

  /// Version of the live registry bundle ("" when not serving from a
  /// registry) and the number of completed hot-reloads.
  std::string live_version() const;
  std::uint64_t reload_count() const { return reloads_.load(); }

  /// Dynamic-code-analysis passes actually executed by this session
  /// (a persistent-feature-store hit avoids one; the warm-restart
  /// bench asserts this stays 0).
  std::uint64_t dca_compute_count() const { return dca_computes_.load(); }
  /// Feature vectors served from the persistent store.
  std::uint64_t feature_store_hit_count() const {
    return store_hits_.load();
  }

  /// Run one DSE sweep through the session's shared machinery: the
  /// estimator snapshot and the session's feature acquisition (circuit
  /// breaker, feature cache, persistent store).  This is what the `dse`
  /// verb calls; exposed for in-process benches and tests.
  dse::SweepResult sweep(const dse::SweepRequest& request);

  /// The sandboxed DCA worker pool (nullptr unless isolate_dca).
  sandbox::WorkerPool* sandbox_pool() { return sandbox_pool_.get(); }

  MetricsRegistry& metrics() { return metrics_; }
  CacheStats feature_cache_stats() const { return features_.stats(); }

  /// The stats endpoint's JSON (also handy without a Request).
  std::string stats_json();

  /// Install a callback run at the top of stats_json() — the TCP
  /// server uses it to sync event-loop counters (connections, bytes,
  /// wakeups) into the metrics registry just before they're emitted.
  /// Pass an empty function to clear; thread-safe.
  void set_stats_hook(std::function<void()> hook);

  /// Loop-health callbacks consulted by the `ready` verb; the TCP
  /// server installs them so readiness reflects the event loop's
  /// watchdog heartbeat and drain state.  In-process sessions (no
  /// server) stay ready by default.  Thread-safe.
  struct ReadyProbe {
    std::function<bool()> loop_healthy;  // heartbeat fresh?
    std::function<bool()> draining;      // graceful drain under way?
  };
  void set_ready_probe(ReadyProbe probe);

  /// The `ready` verb's verdict: the model is loaded, no reload or
  /// quarantine repair is in flight, the registry poller is not in a
  /// failure streak, the loop heartbeat is fresh and the server is not
  /// draining.  `reasons` lists every failing condition.
  struct ReadyState {
    bool ready = true;
    std::vector<std::string> reasons;
  };
  ReadyState ready_state();

  /// Human-readable shutdown summary: endpoint traffic + cache hit
  /// rates.
  std::string summary() const;

 private:
  using FeaturePtr = std::shared_ptr<const core::ModelFeatures>;

  /// handle()'s body.  `held` is try_handle()'s probe result for a
  /// predict (else null): the features to answer from.
  Response respond(const Request& request, FeaturePtr held);
  Response do_predict(const Request& request, FeaturePtr held);
  Response do_rank(const Request& request);
  Response do_dse(const Request& request);
  Response do_analyze(const Request& request);
  Response do_reload(const Request& request);
  Response do_model_info();
  Response do_stats();
  Response do_ping() const;
  Response do_health();
  Response do_ready();
  Response do_shutdown() const;

  FeaturePtr features_for(const std::string& model,
                          const Deadline& deadline = {});
  FeaturePtr compute_features(const std::string& model,
                              const Deadline& deadline);
  /// One DCA pass: in a sandboxed worker when isolate_dca, else the
  /// in-process extractor.  Worker death throws sandbox::AnalysisCrashed.
  core::ModelFeatures run_dca(const std::string& model,
                              const Deadline& deadline);
  /// The one feature acquisition, for a predict, a rank and each dse
  /// topology: admit through the module's circuit breaker, then
  /// single-flight features_for.  Counts analysis_* failures and feeds
  /// the breaker.  Throws on failure: a ServeError(kAnalysisFailed)
  /// when the breaker is open, else the analysis error itself.
  FeaturePtr acquire_features(const std::string& model,
                              const Deadline& deadline);
  struct Acquired {
    FeaturePtr features;
    bool degraded = false;  // static-only fallback, not full DCA
  };
  /// acquire_features, or, when it throws and `allow_degrade`, the
  /// core::static_only_features fallback, counted as one `degraded`.
  Acquired features_or_fallback(const std::string& model,
                                const Deadline& deadline,
                                bool allow_degrade);
  struct Prediction {
    double ipc = 0.0;
    bool degraded = false;
  };
  /// `held` (already acquired) or features_or_fallback, and one tree
  /// walk on the live estimator.
  Prediction predict_one(const std::string& model,
                         const gpu::DeviceSpec& device,
                         const Deadline& deadline, bool allow_degrade,
                         FeaturePtr held);
  /// The per-request deadline: --deadline-ms on the request, else the
  /// configured default; plus the configured step budget.
  Deadline deadline_for(const Request& request) const;

  // ---- circuit breaker (per module fingerprint) ----------------------
  /// One breaker per distinct module topology: consecutive DCA
  /// failures open it, a cooldown admits one half-open probe, a
  /// successful probe closes it again.  A module with no failure since
  /// its last success has no entry.
  struct Breaker {
    int consecutive_failures = 0;
    std::int64_t open_until_ms = 0;  // 0 = closed
    bool probe_in_flight = false;    // half-open: one request testing
  };
  /// FeatureStore::topology_hash of a zoo model: the session's
  /// name → hash memo, kept across reset_caches() and used as the
  /// sweep's hash source.  A miss builds and serializes the model.
  std::uint64_t module_fingerprint(const std::string& model);
  /// False when the breaker is open and this request must fast-fail.
  bool breaker_admit(std::uint64_t fingerprint);
  void breaker_record_success(std::uint64_t fingerprint);
  void breaker_record_failure(std::uint64_t fingerprint);

  /// Publish `estimator` as the live model (swaps the shared_ptr).
  void install_estimator(core::PerformanceEstimator estimator,
                         std::string version, registry::Manifest manifest,
                         std::string source);
  void start_polling();

  /// Applies the session's DCA spill knobs to the process-wide config
  /// and returns the options unchanged.  Runs while initializing
  /// `options_` — i.e. before `extractor_` (whose InstructionCounter
  /// builds the shared kernel-library graphs) is constructed, so even
  /// those startup graphs see the requested budget/directory.
  static ServeOptions apply_dca_spill_knobs(ServeOptions options);

  ServeOptions options_;
  std::unique_ptr<registry::ModelRegistry> registry_;
  std::unique_ptr<registry::FeatureStore> feature_store_;
  // Declared before the thread pool so it is destroyed after it:
  // worker-pool shutdown must not race in-flight work still running on
  // session threads.
  std::unique_ptr<sandbox::WorkerPool> sandbox_pool_;

  mutable std::mutex estimator_mutex_;
  std::shared_ptr<const core::PerformanceEstimator> estimator_;
  std::string live_version_;          // guarded by estimator_mutex_
  registry::Manifest live_manifest_;  // guarded by estimator_mutex_
  std::string model_source_;          // "registry" | "file" | "trained"

  core::FeatureExtractor extractor_;
  cnn::StaticAnalyzer analyzer_;
  ShardedLruCache<cnn::ModelReport> static_reports_;
  ShardedLruCache<core::ModelFeatures> features_;
  // Fans out a dse sweep's feature-cache misses (DCA passes); cached
  // topologies are answered on the calling thread.
  ThreadPool pool_;
  MetricsRegistry metrics_;

  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> dca_computes_{0};
  std::atomic<std::uint64_t> store_hits_{0};

  std::mutex stats_hook_mutex_;
  std::function<void()> stats_hook_;  // guarded by stats_hook_mutex_
  ReadyProbe ready_probe_;            // guarded by stats_hook_mutex_

  std::mutex breaker_mutex_;
  std::unordered_map<std::uint64_t, Breaker> breakers_;
  std::unordered_map<std::string, std::uint64_t> fingerprints_;

  // Readiness signals: a reload (endpoint, API, or poller repair) in
  // flight, and the poller's current consecutive-failure streak.
  std::atomic<bool> reloading_{false};
  std::atomic<int> poll_failure_streak_{0};
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  std::mutex poll_mutex_;
  std::condition_variable poll_cv_;
  bool poll_stop_ = false;
  std::thread poll_thread_;
};

}  // namespace gpuperf::serve
