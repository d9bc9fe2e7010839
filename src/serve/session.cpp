#include "serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/limits.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/dataset_builder.hpp"
#include "core/dse.hpp"
#include "common/mapped_buffer.hpp"
#include "gpu/device_db.hpp"
#include "ptx/counter.hpp"
#include "ptx/depgraph.hpp"
#include "registry/hash.hpp"
#include "sandbox/worker_pool.hpp"
#include "serve/errors.hpp"

namespace gpuperf::serve {

namespace {

// The session's caches hold one entry per zoo model.  Every shard has
// room for the whole zoo, so however std::hash spreads the names over
// the shards, none evicts.
constexpr std::size_t kCacheShards = 8;

std::size_t zoo_capacity() {
  return cnn::zoo::all_models().size() * kCacheShards;
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls `each` with every non-empty, trimmed item of a comma-separated
/// list, in order, as a view into `list`.
template <typename Each>
void for_each_item(std::string_view list, Each each) {
  for (;;) {
    const std::size_t comma = list.find(',');
    const std::string_view item = trim(list.substr(0, comma));
    if (!item.empty()) each(item);
    if (comma == std::string_view::npos) return;
    list.remove_prefix(comma + 1);
  }
}

/// Items for_each_item can at most visit: a reserve bound.
std::size_t item_bound(std::string_view list) {
  return list.empty() ? 0
                      : 1 + static_cast<std::size_t>(std::count(
                                list.begin(), list.end(), ','));
}

}  // namespace

ServeOptions ServeSession::apply_dca_spill_knobs(ServeOptions options) {
  if (!options.dca_spill_dir.empty() || options.dca_spill_budget_bytes > 0) {
    SpillConfig spill = dca_spill_config();
    if (!options.dca_spill_dir.empty()) spill.dir = options.dca_spill_dir;
    if (options.dca_spill_budget_bytes > 0)
      spill.resident_budget_bytes = options.dca_spill_budget_bytes;
    set_dca_spill_config(std::move(spill));
  }
  return options;
}

ServeSession::ServeSession(ServeOptions options)
    : options_(apply_dca_spill_knobs(std::move(options))),
      static_reports_(zoo_capacity(), kCacheShards),
      features_(zoo_capacity(), kCacheShards),
      pool_(options_.n_threads) {
  if (!options_.registry_dir.empty())
    registry_ =
        std::make_unique<registry::ModelRegistry>(options_.registry_dir);
  if (!options_.feature_store_dir.empty())
    feature_store_ =
        std::make_unique<registry::FeatureStore>(options_.feature_store_dir);

  // Pre-register the breaker counters so dashboards (and the stats
  // verb) show them at zero instead of omitting them until the first
  // breaker event.
  metrics_.counter("breaker_open");
  metrics_.counter("breaker_half_open");
  metrics_.counter("breaker_fast_fail");

  if (options_.isolate_dca) {
    sandbox::PoolOptions pool;
    pool.workers = std::max(1, options_.dca_workers);
    pool.hard_timeout_ms = options_.dca_hard_timeout_ms;
    pool.worker_rss_mb = options_.dca_worker_rss_mb;
    pool.worker_as_mb = options_.dca_worker_as_mb;
    pool.quarantine_dir = options_.dca_quarantine_dir;
    sandbox_pool_ = std::make_unique<sandbox::WorkerPool>(pool);
    // Worker lifecycle counters (docs/ROBUSTNESS.md), pre-registered
    // at zero like the breaker's.
    metrics_.counter("analysis_crashes");
    metrics_.counter("worker_crashes");
    metrics_.counter("worker_kills_timeout");
    metrics_.counter("worker_kills_oom");
    metrics_.counter("worker_recycles");
    metrics_.counter("worker_respawns");
  }

  // Likewise the out-of-core graph counters (docs/PERF.md "Graph memory
  // layout"): zeros until the first dependency graph is built/spilled.
  metrics_.counter("depgraph_csr_bytes");
  metrics_.counter("dca_spill_files");
  metrics_.counter("dca_spill_bytes");

  if (registry_) {
    registry::Bundle bundle = registry_->load(options_.registry_version);
    std::string version = bundle.version;
    install_estimator(std::move(bundle.estimator), std::move(version),
                      std::move(bundle.manifest), "registry");
  } else if (!options_.tree_path.empty()) {
    install_estimator(
        core::PerformanceEstimator::load(options_.tree_path), "", {},
        "file");
  } else {
    core::DatasetOptions dataset;
    dataset.models = options_.train_models;
    dataset.devices = options_.train_devices;
    core::PerformanceEstimator estimator(options_.regressor_id,
                                         options_.seed);
    estimator.train(core::DatasetBuilder(dataset).build());
    install_estimator(std::move(estimator), "", {}, "trained");
  }

  if (registry_ && options_.registry_poll_ms > 0) start_polling();
}

ServeSession::~ServeSession() {
  if (poll_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(poll_mutex_);
      poll_stop_ = true;
    }
    poll_cv_.notify_all();
    poll_thread_.join();
  }
}

void ServeSession::install_estimator(core::PerformanceEstimator estimator,
                                     std::string version,
                                     registry::Manifest manifest,
                                     std::string source) {
  auto owned = std::make_shared<const core::PerformanceEstimator>(
      std::move(estimator));
  std::lock_guard<std::mutex> lock(estimator_mutex_);
  estimator_ = std::move(owned);
  live_version_ = std::move(version);
  live_manifest_ = std::move(manifest);
  model_source_ = std::move(source);
}

std::shared_ptr<const core::PerformanceEstimator>
ServeSession::estimator_ptr() const {
  std::lock_guard<std::mutex> lock(estimator_mutex_);
  return estimator_;
}

const core::PerformanceEstimator& ServeSession::estimator() const {
  std::lock_guard<std::mutex> lock(estimator_mutex_);
  return *estimator_;
}

std::string ServeSession::live_version() const {
  std::lock_guard<std::mutex> lock(estimator_mutex_);
  return live_version_;
}

std::string ServeSession::reload(const std::string& version) {
  GP_CHECK_MSG(registry_ != nullptr,
               "no registry configured (start with --registry)");
  // The ready verb reports ready:false for the duration of the swap
  // (including any quarantine repair registry_->load performs).
  reloading_.store(true, std::memory_order_release);
  struct ClearFlag {
    std::atomic<bool>& flag;
    ~ClearFlag() { flag.store(false, std::memory_order_release); }
  } clear{reloading_};
  registry::Bundle bundle = registry_->load(version);
  const std::string installed = bundle.version;
  install_estimator(std::move(bundle.estimator), installed,
                    std::move(bundle.manifest), "registry");
  reloads_.fetch_add(1);
  return installed;
}

void ServeSession::start_polling() {
  poll_thread_ = std::thread([this] {
    // On consecutive failures (dead registry volume, corrupt LATEST)
    // the poll interval doubles up to a cap, so a broken registry costs
    // a handful of reads per minute instead of a hot loop at --poll-ms;
    // one warning per failure streak keeps the log readable.
    int failure_streak = 0;
    constexpr int kMaxBackoffMs = 30'000;
    std::unique_lock<std::mutex> lock(poll_mutex_);
    while (!poll_stop_) {
      const int base = std::max(1, options_.registry_poll_ms);
      int wait_ms = base;
      for (int i = 0; i < std::min(failure_streak, 16) &&
                      wait_ms < kMaxBackoffMs;
           ++i)
        wait_ms *= 2;
      wait_ms = std::min(wait_ms, kMaxBackoffMs);
      poll_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms));
      if (poll_stop_) break;
      lock.unlock();
      try {
        const std::string latest = registry_->latest_version();
        if (!latest.empty() && latest != live_version()) {
          reload(latest);
          GP_LOG(kInfo) << "registry poll: hot-reloaded " << latest;
        }
        if (failure_streak > 0)
          GP_LOG(kInfo) << "registry poll recovered after "
                        << failure_streak << " failures";
        failure_streak = 0;
        poll_failure_streak_.store(0, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        metrics_.counter("registry_poll_failures").fetch_add(1);
        if (failure_streak == 0)
          GP_LOG(kWarn) << "registry poll failed (backing off): "
                        << e.what();
        ++failure_streak;
        // Readiness drops while the poller fights a broken registry:
        // a load balancer should stop routing to this process until
        // the repair lands.
        poll_failure_streak_.store(failure_streak,
                                   std::memory_order_relaxed);
      }
      lock.lock();
    }
  });
}

core::ModelFeatures ServeSession::run_dca(const std::string& model,
                                          const Deadline& deadline) {
  if (sandbox_pool_)
    return sandbox_pool_->compute(
        model, deadline, registry::hex64(module_fingerprint(model)));
  return extractor_.compute(cnn::zoo::build(model), deadline);
}

ServeSession::FeaturePtr ServeSession::compute_features(
    const std::string& model, const Deadline& deadline) {
  // In isolated mode every dca.* chaos site fires inside the worker
  // (the pool ships an armed-site snapshot with each request), so the
  // parent-side point stays quiet — otherwise it would consume the
  // firing the worker was meant to see.
  if (!sandbox_pool_) GPUPERF_FAULT_POINT_D("dca.compute", &deadline);
  const auto compute = [&] {
    core::ModelFeatures computed = run_dca(model, deadline);
    dca_computes_.fetch_add(1);
    return computed;
  };
  if (!feature_store_)
    return std::make_shared<const core::ModelFeatures>(compute());
  registry::FeatureStore::Lookup lookup =
      feature_store_->get_or_compute(module_fingerprint(model), compute);
  if (lookup.hit) store_hits_.fetch_add(1);
  if (lookup.read_failed)
    metrics_.counter("store_read_failures").fetch_add(1);
  if (lookup.write_failed)
    metrics_.counter("store_write_failures").fetch_add(1);
  return std::move(lookup.features);
}

ServeSession::FeaturePtr ServeSession::features_for(
    const std::string& model, const Deadline& deadline) {
  // Single-flight: concurrent requests for one model share a compute.
  // If the winner's deadline expires, the cache propagates the
  // AnalysisTimeout to every waiter AND erases the entry, so the next
  // request retries with its own (possibly longer) budget.
  return features_.get_or_compute(
      model, [&] { return compute_features(model, deadline); });
}

std::uint64_t ServeSession::module_fingerprint(const std::string& model) {
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    const auto it = fingerprints_.find(model);
    if (it != fingerprints_.end()) return it->second;
  }
  // Layer-descriptor hash only — no PTX, no DCA — so the breaker can
  // key requests before any expensive work starts.
  const std::uint64_t fp =
      registry::FeatureStore::topology_hash(cnn::zoo::build(model));
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  fingerprints_.emplace(model, fp);
  return fp;
}

bool ServeSession::breaker_admit(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  const auto it = breakers_.find(fingerprint);
  if (it == breakers_.end()) return true;  // no failure since a success
  Breaker& b = it->second;
  if (b.open_until_ms == 0) return true;  // closed
  const std::int64_t now = steady_now_ms();
  if (now < b.open_until_ms) return false;  // open: fast-fail
  if (b.probe_in_flight) return false;  // half-open, probe already out
  // Cooldown elapsed: let exactly one request re-attempt the analysis.
  b.probe_in_flight = true;
  metrics_.counter("breaker_half_open").fetch_add(1);
  return true;
}

void ServeSession::breaker_record_success(std::uint64_t fingerprint) {
  // Closed with no failures is the same as no entry: a module that
  // never failed costs a lookup here, never a write.
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  breakers_.erase(fingerprint);
}

void ServeSession::breaker_record_failure(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  Breaker& b = breakers_[fingerprint];
  ++b.consecutive_failures;
  if (b.probe_in_flight) {
    // The half-open probe failed: straight back to open.
    b.probe_in_flight = false;
    b.open_until_ms = steady_now_ms() + options_.breaker_cooldown_ms;
    metrics_.counter("breaker_open").fetch_add(1);
    return;
  }
  if (b.open_until_ms == 0 &&
      b.consecutive_failures >= options_.breaker_threshold) {
    b.open_until_ms = steady_now_ms() + options_.breaker_cooldown_ms;
    metrics_.counter("breaker_open").fetch_add(1);
  }
}

ServeSession::FeaturePtr ServeSession::acquire_features(
    const std::string& model, const Deadline& deadline) {
  const bool breaker_on = options_.breaker_threshold > 0;
  const std::uint64_t fp = breaker_on ? module_fingerprint(model) : 0;
  if (breaker_on && !breaker_admit(fp)) {
    // Open breaker: this module's DCA has failed repeatedly and its
    // cooldown hasn't produced a successful probe — skip the doomed
    // (and expensive) analysis outright.
    metrics_.counter("breaker_fast_fail").fetch_add(1);
    throw ServeError(ErrorCode::kAnalysisFailed,
                     "circuit breaker open for '" + model +
                         "': repeated analysis failures; retry after "
                         "cooldown");
  }
  const auto failed = [&](const char* counter) {
    metrics_.counter(counter).fetch_add(1);
    if (breaker_on) breaker_record_failure(fp);
  };
  try {
    FeaturePtr features = features_for(model, deadline);
    if (breaker_on) breaker_record_success(fp);
    return features;
  } catch (const AnalysisTimeout&) {
    failed("analysis_timeouts");
    throw;
  } catch (const sandbox::AnalysisCrashed&) {
    // A sandboxed worker died under this module: the strongest breaker
    // signal there is.
    failed("analysis_crashes");
    throw;
  } catch (const std::exception&) {
    failed("analysis_failures");
    throw;
  }
}

ServeSession::Acquired ServeSession::features_or_fallback(
    const std::string& model, const Deadline& deadline,
    bool allow_degrade) {
  try {
    return {acquire_features(model, deadline), false};
  } catch (const std::exception&) {
    if (!allow_degrade) throw;
  }
  const auto report = static_reports_.get_or_compute(model, [&] {
    return std::make_shared<const cnn::ModelReport>(
        analyzer_.analyze(cnn::zoo::build(model)));
  });
  metrics_.counter("degraded").fetch_add(1);
  return {std::make_shared<const core::ModelFeatures>(
              core::static_only_features(*report)),
          true};
}

ServeSession::Prediction ServeSession::predict_one(
    const std::string& model, const gpu::DeviceSpec& device,
    const Deadline& deadline, bool allow_degrade, FeaturePtr held) {
  const Acquired acquired =
      held != nullptr
          ? Acquired{std::move(held), false}
          : features_or_fallback(model, deadline, allow_degrade);
  return {estimator_ptr()->predict(*acquired.features, device),
          acquired.degraded};
}

Deadline ServeSession::deadline_for(const Request& request) const {
  std::int64_t ms = options_.default_deadline_ms;
  const std::string flag = request.cmd.flag_or("deadline-ms", "");
  if (!flag.empty()) ms = parse_int(flag);
  Deadline deadline = ms > 0 ? Deadline::after_ms(ms) : Deadline();
  if (options_.dca_step_budget > 0)
    deadline.with_step_budget(options_.dca_step_budget);
  return deadline;
}

double ServeSession::predict(const std::string& model,
                             const std::string& device) {
  GP_CHECK_MSG(cnn::zoo::find(model) != nullptr,
               "unknown model '" << model << "'");
  const gpu::DeviceSpec* spec = gpu::find_device(device);
  GP_CHECK_MSG(spec != nullptr, "unknown device '" << device << "'");
  Deadline deadline;
  if (options_.default_deadline_ms > 0)
    deadline = Deadline::after_ms(options_.default_deadline_ms);
  if (options_.dca_step_budget > 0)
    deadline.with_step_budget(options_.dca_step_budget);
  return predict_one(model, *spec, deadline, options_.degradation, nullptr)
      .ipc;
}

Response ServeSession::do_predict(const Request& request,
                                  FeaturePtr held) {
  if (request.cmd.positional.size() < 2)
    return error_response("usage: predict <model> <device>");
  const std::string& model = request.cmd.positional[0];
  const std::string& device = request.cmd.positional[1];
  if (cnn::zoo::find(model) == nullptr)
    return error_response("unknown model '" + model + "'");
  const gpu::DeviceSpec* spec = gpu::find_device(device);
  if (spec == nullptr)
    return error_response("unknown device '" + device + "'");

  const bool allow_degrade =
      options_.degradation && !request.cmd.has_flag("no-degrade");
  const Prediction outcome = predict_one(
      model, *spec, deadline_for(request), allow_degrade, std::move(held));

  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "predict")
      .field("model", std::string_view(model))
      .field("device", std::string_view(device))
      .field("ipc", outcome.ipc)
      // Always false: predictions are not cached.  The field stays so
      // existing clients parse the same body.
      .field("cached", false)
      .field("degraded", outcome.degraded)
      .end_object();
  return Response{true, json.take(), false};
}

Response ServeSession::do_rank(const Request& request) {
  if (request.cmd.positional.empty())
    return error_response("usage: rank <model>");
  const std::string& model = request.cmd.positional.front();
  if (cnn::zoo::find(model) == nullptr)
    return error_response("unknown model '" + model + "'");

  // One acquisition and one deadline serve the whole ranking: features
  // are device-independent, so per-device budgets would only multiply
  // the allowance.
  const bool allow_degrade =
      options_.degradation && !request.cmd.has_flag("no-degrade");
  const Acquired acquired =
      features_or_fallback(model, deadline_for(request), allow_degrade);
  const auto estimator = estimator_ptr();
  const std::vector<core::DeviceRanking> ranking =
      core::DseExplorer(*estimator).rank_devices(*acquired.features,
                                                 gpu::device_names());

  // Presized: a row is under 96 bytes.
  JsonWriter json(128 + 96 * ranking.size());
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "rank")
      .field("model", std::string_view(model))
      .field("degraded", acquired.degraded);
  json.begin_array("ranking");
  for (const core::DeviceRanking& row : ranking) {
    json.begin_object()
        .field("device", std::string_view(row.device))
        .field("ipc", row.predicted_ipc)
        .field("throughput_proxy", row.predicted_throughput)
        .end_object();
  }
  json.end_array().end_object();
  return Response{true, json.take(), false};
}

dse::SweepResult ServeSession::sweep(const dse::SweepRequest& request) {
  // One estimator snapshot for the whole sweep: a hot-reload mid-flight
  // cannot mix two models' predictions.
  const std::shared_ptr<const core::PerformanceEstimator> estimator =
      estimator_ptr();
  dse::SweepEngine::Options engine;
  engine.pool = &pool_;
  // Acquire features as every other verb does: through the breaker
  // and the single-flight feature cache and persistent store, so
  // concurrent sweeps never duplicate a DCA pass and an open breaker
  // skips it.
  engine.feature_source = [this](const std::string& model,
                                 const Deadline& deadline) {
    return acquire_features(model, deadline);
  };
  // Plan from the name → hash memo: a warm sweep builds no model.
  engine.topology_hash = [this](const std::string& model) {
    return module_fingerprint(model);
  };
  // Features already cached are answered on this thread with no breaker
  // lookup.  That is what acquire_features would answer: features enter
  // the cache only through a successful acquisition, which erases the
  // module's breaker entry, and the cache never evicts a zoo model.
  engine.probe = [this](const std::string& model) {
    return features_.try_get(model);
  };
  return dse::SweepEngine(*estimator, std::move(engine)).run(request);
}

Response ServeSession::do_dse(const Request& request) {
  if (request.cmd.positional.empty())
    return error_response(
        "usage: dse <model,model,...|all> [--devices=d1,d2,...] "
        "[--max-latency-ms=N] [--max-power-w=N] [--max-cost-usd=N] "
        "[--w-latency=N] [--w-power=N] [--w-cost=N] [--deadline-ms=N] "
        "[--cells] [--no-degrade]");
  const auto flag = [&](const char* key) -> std::string_view {
    const auto it = request.cmd.flags.find(key);
    return it == request.cmd.flags.end() ? std::string_view()
                                          : std::string_view(it->second);
  };

  // The lists are split in place; the engine looks each name up once,
  // and its "unknown model/device" errors are this verb's answers.
  dse::SweepRequest sweep_request;
  const std::string_view spec = request.cmd.positional.front();
  if (spec == "all") {
    sweep_request.models.reserve(cnn::zoo::all_models().size());
    for (const cnn::zoo::ZooEntry& entry : cnn::zoo::all_models())
      sweep_request.models.push_back(entry.name);
  } else {
    sweep_request.models.reserve(item_bound(spec));
    for_each_item(spec, [&](std::string_view name) {
      sweep_request.models.emplace_back(name);
    });
  }
  if (sweep_request.models.empty())
    return error_response("dse needs at least one model");
  const std::string_view devices = flag("devices");
  sweep_request.devices.reserve(item_bound(devices));
  for_each_item(devices, [&](std::string_view name) {
    sweep_request.devices.emplace_back(name);
  });

  dse::Constraints& c = sweep_request.constraints;
  const auto flag_double = [&](const char* key, double fallback) {
    const std::string_view value = flag(key);
    return value.empty() ? fallback : parse_double(value);
  };
  c.max_latency_ms = flag_double("max-latency-ms", 0.0);
  c.max_power_w = flag_double("max-power-w", 0.0);
  c.max_cost_usd = flag_double("max-cost-usd", 0.0);
  c.w_latency = flag_double("w-latency", 1.0);
  c.w_power = flag_double("w-power", 0.0);
  c.w_cost = flag_double("w-cost", 0.0);

  sweep_request.deadline = deadline_for(request);
  sweep_request.allow_degrade =
      options_.degradation && !request.cmd.has_flag("no-degrade");

  const dse::SweepResult result = sweep(sweep_request);
  metrics_.counter("dse_sweep_cells")
      .fetch_add(static_cast<std::int64_t>(result.cells.size()));

  if (!result.feasible()) {
    if (result.failed_cells == result.cells.size())
      throw ServeError(ErrorCode::kAnalysisFailed,
                       "every sweep cell failed; no device can be ranked");
    throw ServeError(
        ErrorCode::kConstraintInfeasible,
        "no device satisfies the constraints (" +
            std::to_string(result.ranking.size()) +
            " candidates, all filtered); relax a bound or widen "
            "--devices");
  }

  // Presized from the counts: a recommendation is under 320 bytes, a
  // cell without an error message under 192.
  const bool with_cells = request.cmd.has_flag("cells");
  JsonWriter json(384 + 320 * result.ranking.size() +
                  (with_cells ? 192 * result.cells.size() : 0));
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "dse")
      .field("models",
             static_cast<std::uint64_t>(sweep_request.models.size()))
      .field("devices", static_cast<std::uint64_t>(result.ranking.size()))
      .field("unique_topologies",
             static_cast<std::uint64_t>(result.unique_topologies))
      .field("duplicate_models",
             static_cast<std::uint64_t>(result.duplicate_models))
      // Always 0: sweep cells are not cached.  Kept for existing clients.
      .field("sweep_cache_hits", std::uint64_t{0})
      .field("features_computed",
             static_cast<std::uint64_t>(result.features_computed))
      .field("degraded_cells",
             static_cast<std::uint64_t>(result.degraded_cells))
      .field("failed_cells",
             static_cast<std::uint64_t>(result.failed_cells))
      .field("degraded", result.degraded_cells > 0)
      .field("elapsed_ms", result.elapsed_seconds * 1e3)
      .field("pareto", std::string_view(join(result.pareto, ",")));
  json.begin_array("recommendations");
  for (const dse::DeviceSummary& s : result.ranking) {
    json.begin_object()
        .field("device", std::string_view(s.device))
        .field("feasible", s.feasible)
        .field("pareto", s.pareto)
        .field("score", s.score)
        .field("total_latency_ms", s.total_latency_ms)
        .field("worst_latency_ms", s.worst_latency_ms)
        .field("peak_power_w", s.peak_power_w);
    if (s.has_cost) json.field("cost_usd", s.cost_usd);
    json.field("cells_ok", static_cast<std::int64_t>(s.cells_ok))
        .field("cells_degraded",
               static_cast<std::int64_t>(s.cells_degraded))
        .field("cells_failed", static_cast<std::int64_t>(s.cells_failed));
    if (!s.feasible) json.field("reason", s.infeasible_reason);
    json.end_object();
  }
  json.end_array();
  if (with_cells) {
    json.begin_array("cells");
    for (const dse::SweepCell& cell : result.cells) {
      json.begin_object()
          .field("model", cell.model)
          .field("device", cell.device)
          .field("status", dse::cell_status_name(cell.status))
          .field("cached", false)  // cells are not cached; kept for clients
          .field("ipc", cell.predicted_ipc)
          .field("latency_ms", cell.latency_ms)
          .field("power_w", cell.power_w);
      if (cell.status == dse::CellStatus::kFailed)
        json.field("error", std::string_view(cell.error));
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  return Response{true, json.take(), false};
}

Response ServeSession::do_analyze(const Request& request) {
  if (request.cmd.positional.empty())
    return error_response("usage: analyze <model>");
  const std::string& model = request.cmd.positional.front();
  if (cnn::zoo::find(model) == nullptr)
    return error_response("unknown model '" + model + "'");

  const auto report = static_reports_.get_or_compute(model, [&] {
    return std::make_shared<const cnn::ModelReport>(
        analyzer_.analyze(cnn::zoo::build(model)));
  });

  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "analyze")
      .field("model", std::string_view(model))
      .field("trainable_params", report->trainable_params)
      .field("total_params", report->total_params)
      .field("neurons", report->neurons)
      .field("macs", report->macs)
      .field("flops", report->flops)
      .field("weighted_layers", report->weighted_layers)
      .end_object();
  return Response{true, json.take(), false};
}

Response ServeSession::do_reload(const Request& request) {
  if (!registry_)
    return error_response(
        "no registry configured (start the server with --registry)");
  const std::string version = request.cmd.flag_or("version", "");
  std::string installed;
  try {
    installed = reload(version);
  } catch (const std::exception& e) {
    // A missing or corrupt bundle: the previously installed model keeps
    // serving; the client gets a retryable typed code.
    throw ServeError(ErrorCode::kModelUnavailable, e.what());
  }

  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "reload")
      .field("version", std::string_view(installed))
      .field("regressor",
             std::string_view(estimator_ptr()->regressor_id()))
      .field("reloads", reload_count())
      .end_object();
  return Response{true, json.take(), false};
}

Response ServeSession::do_model_info() {
  // Snapshot the live bundle state in one critical section.
  std::string version, source, regressor;
  registry::Manifest manifest;
  {
    std::lock_guard<std::mutex> lock(estimator_mutex_);
    version = live_version_;
    source = model_source_;
    manifest = live_manifest_;
    regressor = estimator_->regressor_id();
  }

  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "model_info")
      .field("source", std::string_view(source))
      .field("version", std::string_view(version))
      .field("regressor", std::string_view(regressor))
      .field("reloads", reload_count());
  if (source == "registry") {
    json.field("cv_folds", static_cast<std::uint64_t>(manifest.cv_folds))
        .field("cv_mape", manifest.cv_mape)
        .field("cv_r2", manifest.cv_r2)
        .field("feature_schema",
               std::string_view(
                   registry::hex64(manifest.feature_schema_hash)))
        .field("model_checksum",
               std::string_view(registry::hex64(manifest.model_checksum)))
        .field("seed", manifest.seed);
  }
  json.end_object();
  return Response{true, json.take(), false};
}

namespace {

void write_cache_json(JsonWriter& json, std::string_view name,
                      const CacheStats& stats) {
  json.begin_object(name)
      .field("hits", stats.hits)
      .field("misses", stats.misses)
      .field("evictions", stats.evictions)
      .field("size", static_cast<std::uint64_t>(stats.size))
      .end_object();
}

}  // namespace

void ServeSession::set_stats_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(stats_hook_mutex_);
  stats_hook_ = std::move(hook);
}

void ServeSession::set_ready_probe(ReadyProbe probe) {
  std::lock_guard<std::mutex> lock(stats_hook_mutex_);
  ready_probe_ = std::move(probe);
}

std::string ServeSession::stats_json() {
  {
    std::lock_guard<std::mutex> lock(stats_hook_mutex_);
    if (stats_hook_) stats_hook_();
  }
  // Sync the process-wide DCA fast-path counters into the registry so
  // they appear under "counters" alongside the serve-local ones.
  const auto memo = ptx::InstructionCounter::memo_stats();
  metrics_.counter("dca_memo_hits").store(memo.hits);
  metrics_.counter("dca_memo_misses").store(memo.misses);
  metrics_.counter("dca_parallel_tasks").store(memo.parallel_tasks);
  metrics_.counter("depgraph_csr_bytes")
      .store(ptx::DependencyGraph::total_csr_bytes());
  metrics_.counter("dca_spill_files").store(MappedBuffer::spill_files_total());
  metrics_.counter("dca_spill_bytes").store(MappedBuffer::spill_bytes_total());
  // Durability telemetry (docs/ROBUSTNESS.md): bundles moved aside for
  // on-disk corruption and journal records replayed at store open.
  metrics_.counter("bundles_quarantined")
      .store(registry_ ? registry_->quarantined_total() : 0);
  metrics_.counter("store_records_recovered")
      .store(feature_store_ ? feature_store_->recovered_records() : 0);
  // Worker lifecycle telemetry from the sandbox pool (isolate_dca).
  if (sandbox_pool_) {
    const sandbox::PoolStats ps = sandbox_pool_->stats();
    metrics_.counter("worker_crashes").store(ps.worker_crashes);
    metrics_.counter("worker_kills_timeout").store(ps.worker_kills_timeout);
    metrics_.counter("worker_kills_oom").store(ps.worker_kills_oom);
    metrics_.counter("worker_recycles").store(ps.worker_recycles);
    metrics_.counter("worker_respawns").store(ps.worker_respawns);
  }

  JsonWriter json;
  json.begin_object().field("ok", true).field("endpoint", "stats");
  metrics_.write_json(json);
  json.begin_object("caches");
  write_cache_json(json, "static", static_reports_.stats());
  write_cache_json(json, "features", features_.stats());
  json.end_object();
  json.begin_object("dca")
      .field("computes", dca_compute_count())
      .field("store_hits", feature_store_hit_count())
      .field("memo_hits", memo.hits)
      .field("memo_misses", memo.misses)
      .field("parallel_tasks", memo.parallel_tasks)
      .end_object();
  if (sandbox_pool_) {
    const sandbox::PoolStats ps = sandbox_pool_->stats();
    json.begin_object("sandbox")
        .field("workers",
               static_cast<std::int64_t>(options_.dca_workers))
        .field("alive", static_cast<std::int64_t>(
                            sandbox_pool_->alive_workers()))
        .field("requests", ps.requests)
        .field("hard_timeout_ms",
               static_cast<std::int64_t>(options_.dca_hard_timeout_ms))
        .field("worker_rss_mb",
               static_cast<std::uint64_t>(options_.dca_worker_rss_mb))
        .end_object();
  }
  json.begin_object("limits")
      .field("default_deadline_ms",
             static_cast<std::int64_t>(options_.default_deadline_ms))
      .field("dca_step_budget", options_.dca_step_budget)
      .field("degradation", options_.degradation)
      .field("max_in_flight",
             static_cast<std::uint64_t>(options_.max_in_flight))
      .field("breaker_threshold",
             static_cast<std::int64_t>(options_.breaker_threshold))
      .field("breaker_cooldown_ms",
             static_cast<std::int64_t>(options_.breaker_cooldown_ms))
      .end_object();
  const auto estimator = estimator_ptr();
  json.begin_object("estimator")
      .field("regressor", std::string_view(estimator->regressor_id()))
      .field("trained", estimator->is_trained())
      .field("version", std::string_view(live_version()))
      .field("reloads", reload_count())
      .field("threads", static_cast<std::uint64_t>(pool_.size()))
      .end_object();
  json.end_object();
  return json.take();
}

Response ServeSession::do_stats() {
  return Response{true, stats_json(), false};
}

Response ServeSession::do_ping() const {
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "ping")
      .end_object();
  return Response{true, json.take(), false};
}

Response ServeSession::do_health() {
  // Liveness: the process answered, the dispatch path works.  Always
  // ok:true — a wedged process simply doesn't respond.
  const auto uptime =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "health")
      .field("status", "ok")
      .field("uptime_ms", static_cast<std::int64_t>(uptime))
      .end_object();
  return Response{true, json.take(), false};
}

ServeSession::ReadyState ServeSession::ready_state() {
  ReadyState state;
  {
    std::lock_guard<std::mutex> lock(estimator_mutex_);
    if (estimator_ == nullptr || !estimator_->is_trained())
      state.reasons.push_back("estimator_not_loaded");
  }
  if (reloading_.load(std::memory_order_acquire))
    state.reasons.push_back("reload_in_flight");
  if (poll_failure_streak_.load(std::memory_order_relaxed) > 0)
    state.reasons.push_back("registry_poll_failing");
  ReadyProbe probe;
  {
    std::lock_guard<std::mutex> lock(stats_hook_mutex_);
    probe = ready_probe_;
  }
  if (probe.draining && probe.draining())
    state.reasons.push_back("draining");
  if (probe.loop_healthy && !probe.loop_healthy())
    state.reasons.push_back("loop_heartbeat_stale");
  state.ready = state.reasons.empty();
  return state;
}

Response ServeSession::do_ready() {
  const ReadyState state = ready_state();
  // ok:true either way — "not ready" is a valid, well-formed answer; a
  // load balancer branches on the ready field, not on ok.
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "ready")
      .field("ready", state.ready);
  json.begin_array("reasons");
  for (const std::string& reason : state.reasons)
    json.value(std::string_view(reason));
  json.end_array().end_object();
  return Response{true, json.take(), false};
}

Response ServeSession::do_shutdown() const {
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "shutdown")
      .end_object();
  return Response{true, json.take(), true};
}

Response ServeSession::handle(const Request& request) {
  return respond(request, nullptr);
}

std::optional<Response> ServeSession::try_handle(const Request& request) {
  if (request.verb == "ping") return respond(request, nullptr);
  if (request.verb != "predict" || request.cmd.positional.empty())
    return std::nullopt;
  // The probe is the acquisition: the body answers from these features
  // and looks nothing up again.
  FeaturePtr held = features_.try_get(request.cmd.positional.front());
  if (held == nullptr) return std::nullopt;
  return respond(request, std::move(held));
}

Response ServeSession::respond(const Request& request, FeaturePtr held) {
  static const char* kKnown[] = {"predict", "rank",       "dse",
                                 "analyze", "reload",     "model_info",
                                 "stats",   "ping",       "shutdown",
                                 "health",  "ready"};
  const bool known =
      std::find(std::begin(kKnown), std::end(kKnown), request.verb) !=
      std::end(kKnown);
  EndpointMetrics& endpoint =
      metrics_.endpoint(known ? request.verb : "unknown");
  MetricsRegistry::ScopedRequest scope(metrics_, endpoint);
  if (!known) {
    scope.mark_error();
    return error_response("unknown command '" + request.verb +
                          "' (try: predict, rank, dse, analyze, reload, "
                          "model_info, stats, ping, health, ready, "
                          "shutdown)");
  }

  // Admission control: heavy verbs are shed once the in-flight gauge
  // (which already counts this request) passes the bound.
  if (is_heavy_verb(request.verb) && options_.max_in_flight > 0 &&
      metrics_.in_flight() >
          static_cast<std::int64_t>(options_.max_in_flight)) {
    metrics_.counter("shed_overloaded").fetch_add(1);
    scope.mark_error();
    return error_response(
        ErrorCode::kOverloaded,
        "server at capacity (" +
            std::to_string(options_.max_in_flight) +
            " requests in flight)",
        /*retry_after_ms=*/100);
  }

  try {
    Response response;
    if (request.verb == "predict")
      response = do_predict(request, std::move(held));
    else if (request.verb == "rank") response = do_rank(request);
    else if (request.verb == "dse") response = do_dse(request);
    else if (request.verb == "analyze") response = do_analyze(request);
    else if (request.verb == "reload") response = do_reload(request);
    else if (request.verb == "model_info") response = do_model_info();
    else if (request.verb == "stats") response = do_stats();
    else if (request.verb == "ping") response = do_ping();
    else if (request.verb == "health") response = do_health();
    else if (request.verb == "ready") response = do_ready();
    else response = do_shutdown();
    if (!response.ok) scope.mark_error();
    return response;
  } catch (const ServeError& e) {
    scope.mark_error();
    return error_response(e.code(), e.what(),
                          e.code() == ErrorCode::kOverloaded ? 100 : 0);
  } catch (const AnalysisTimeout& e) {
    scope.mark_error();
    return error_response(ErrorCode::kAnalysisTimeout, e.what());
  } catch (const sandbox::AnalysisCrashed& e) {
    scope.mark_error();
    return error_response(ErrorCode::kAnalysisCrashed, e.what());
  } catch (const LimitExceeded& e) {
    // A request-derived input blew a resource budget (docs/ROBUSTNESS.md):
    // typed as input_too_large so clients can tell "shrink your input"
    // apart from "fix your syntax".
    metrics_.counter("inputs_rejected").fetch_add(1);
    scope.mark_error();
    return error_response(ErrorCode::kInputTooLarge, e.what());
  } catch (const InputRejected& e) {
    // Malformed bytes rejected by a bounded parser — the caller's input,
    // not a server fault.
    metrics_.counter("inputs_rejected").fetch_add(1);
    scope.mark_error();
    return error_response(ErrorCode::kInvalidRequest, e.what());
  } catch (const CheckError& e) {
    // GP_CHECK failures on request-derived values (bad flag syntax,
    // malformed numbers) are the caller's fault.
    scope.mark_error();
    return error_response(ErrorCode::kInvalidRequest, e.what());
  } catch (const std::exception& e) {
    scope.mark_error();
    return error_response(ErrorCode::kAnalysisFailed, e.what());
  }
}

std::string ServeSession::handle_line(const std::string& line) {
  return handle(parse_request(line)).body;
}

void ServeSession::reset_caches() {
  static_reports_.clear();
  features_.clear();
}

std::string ServeSession::summary() const {
  std::ostringstream os;
  os << metrics_.summary();
  {
    std::lock_guard<std::mutex> lock(estimator_mutex_);
    os << "  model: " << model_source_;
    if (!live_version_.empty()) os << " " << live_version_;
    os << " (" << estimator_->regressor_id() << "), " << reloads_.load()
       << " reloads\n";
  }
  const auto line = [&os](const char* name, const CacheStats& stats) {
    const std::uint64_t total = stats.hits + stats.misses;
    os << "  " << name << " cache: " << stats.hits << "/" << total
       << " hits, " << stats.evictions << " evictions\n";
  };
  line("static", static_reports_.stats());
  line("feature", features_.stats());
  os << "  dca: " << dca_computes_.load() << " computed, "
     << store_hits_.load() << " from the persistent store\n";
  return os.str();
}

}  // namespace gpuperf::serve
