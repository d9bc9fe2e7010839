#include "dse/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/stopwatch.hpp"
#include "gpu/device_db.hpp"
#include "ml/model_io.hpp"
#include "registry/feature_store.hpp"
#include "registry/hash.hpp"

namespace gpuperf::dse {

bool SweepResult::feasible() const {
  return std::any_of(ranking.begin(), ranking.end(),
                     [](const DeviceSummary& s) { return s.feasible; });
}

std::vector<core::DseTiming> time_models(
    const core::PerformanceEstimator& estimator,
    const std::vector<std::string>& models,
    const std::vector<std::string>& devices) {
  const core::DseExplorer explorer(estimator);
  std::vector<core::DseTiming> out;
  out.reserve(models.size());
  for (const std::string& model : models)
    out.push_back(explorer.time_model(model, devices));
  return out;
}

std::string make_bundle_key(const core::PerformanceEstimator& estimator,
                            const std::string& registry_version) {
  if (!registry_version.empty()) return registry_version;
  GP_CHECK_MSG(estimator.is_trained(),
               "bundle key needs a trained estimator");
  // Content-address the whole regressor: two ad-hoc estimators trained
  // on different data (or seeds) must never share sweep-cache entries.
  return "adhoc-" +
         registry::hex64(
             registry::fnv1a64(ml::serialize_regressor(estimator.model())));
}

SweepEngine::SweepEngine(const core::PerformanceEstimator& estimator)
    : SweepEngine(estimator, Options()) {}

SweepEngine::SweepEngine(const core::PerformanceEstimator& estimator,
                         Options options)
    : estimator_(estimator),
      cache_(options.cache),
      pool_(options.pool),
      feature_source_(std::move(options.feature_source)),
      topology_hash_(std::move(options.topology_hash)),
      bundle_key_(options.bundle_key.empty()
                      ? make_bundle_key(estimator, "")
                      : std::move(options.bundle_key)) {
  GP_CHECK_MSG(estimator_.is_trained(),
               "DSE sweep needs a trained estimator");
}

SweepResult SweepEngine::run(const SweepRequest& request) const {
  Stopwatch watch;
  GP_CHECK_MSG(!request.models.empty(),
               "dse sweep needs at least one model");
  for (const std::string& model : request.models)
    GP_CHECK_MSG(cnn::zoo::has_model(model),
                 "unknown model '" << model << "'");
  const std::vector<std::string> devices =
      request.devices.empty() ? gpu::dse_devices() : request.devices;
  std::vector<const gpu::DeviceSpec*> specs;
  specs.reserve(devices.size());
  for (const std::string& name : devices) {
    GP_CHECK_MSG(gpu::has_device(name), "unknown device '" << name << "'");
    specs.push_back(&gpu::device(name));
  }

  // ---- plan: deduplicate the model list by topology hash ------------
  // The hash covers the model name, so only a repeated name shares a
  // DCA pass.  A model is built here only without a hash source.
  struct Topology {
    std::uint64_t hash = 0;
    std::string representative;  // first model name with this topology
  };
  std::vector<Topology> topologies;
  std::vector<std::optional<cnn::Model>> models;  // by topology
  std::vector<std::size_t> topology_of_model(request.models.size());
  {
    std::unordered_map<std::uint64_t, std::size_t> by_hash;
    for (std::size_t mi = 0; mi < request.models.size(); ++mi) {
      std::optional<cnn::Model> model;
      if (!topology_hash_) model = cnn::zoo::build(request.models[mi]);
      const std::uint64_t hash =
          model ? registry::FeatureStore::topology_hash(*model)
                : topology_hash_(request.models[mi]);
      const auto [it, fresh] = by_hash.emplace(hash, topologies.size());
      topology_of_model[mi] = it->second;
      if (!fresh) continue;
      topologies.push_back({hash, request.models[mi]});
      models.push_back(std::move(model));
    }
  }

  // ---- execute: one parallel job per distinct topology --------------
  struct CellValue {
    CellStatus status = CellStatus::kFailed;
    bool cached = false;
    double ipc = 0.0;
    double latency_ms = 0.0;
    double power_w = 0.0;
    std::string error;
  };
  std::vector<std::vector<CellValue>> values(
      topologies.size(), std::vector<CellValue>(devices.size()));
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> features_computed{0};

  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::shared();
  pool.parallel_for(topologies.size(), [&](std::size_t ti) {
    const Topology& topo = topologies[ti];
    std::vector<CellValue>& row = values[ti];
    const auto model = [&]() -> const cnn::Model& {  // built on first use
      if (!models[ti]) models[ti] = cnn::zoo::build(topo.representative);
      return *models[ti];
    };

    // 1. Probe the persistent cache per device: a full hit row skips
    //    feature acquisition (and therefore DCA) entirely.
    std::vector<std::size_t> missing;
    for (std::size_t di = 0; di < devices.size(); ++di) {
      if (cache_ != nullptr) {
        try {
          if (const auto hit = cache_->get(SweepCache::cell_key(
                  topo.hash, devices[di], bundle_key_))) {
            row[di] = {CellStatus::kOk, true, hit->predicted_ipc,
                       hit->latency_ms, hit->power_w, ""};
            cache_hits.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
        } catch (const std::exception&) {
          // An unreadable cache is a miss, not a failed cell.
        }
      }
      missing.push_back(di);
    }
    if (missing.empty()) return;

    // 2. Features once per topology.  Each job charges a private copy
    //    of the request deadline: the wall clock is naturally shared,
    //    a shared step counter would race across worker threads.
    const Deadline deadline = request.deadline;
    std::shared_ptr<const core::ModelFeatures> features;
    CellStatus status = CellStatus::kOk;
    std::string error;
    try {
      GPUPERF_FAULT_POINT_D("dse.features", &deadline);
      features =
          feature_source_
              ? feature_source_(topo.representative, deadline)
              : std::make_shared<const core::ModelFeatures>(
                    extractor_.compute(model(), deadline));
      GP_CHECK_MSG(features != nullptr, "feature source returned null");
      features_computed.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& primary) {
      features = nullptr;
      if (request.allow_degrade) {
        try {
          features = std::make_shared<const core::ModelFeatures>(
              core::static_only_features(analyzer_.analyze(model())));
          status = CellStatus::kDegraded;
        } catch (const std::exception& fallback) {
          status = CellStatus::kFailed;
          error = fallback.what();
        }
      } else {
        status = CellStatus::kFailed;
        error = primary.what();
      }
    }

    // 3. Fill the missing cells from the (full or fallback) features.
    for (const std::size_t di : missing) {
      CellValue& cell = row[di];
      if (!features) {
        cell = {CellStatus::kFailed, false, 0.0, 0.0, 0.0, error};
        continue;
      }
      cell.status = status;
      cell.cached = false;
      cell.ipc = estimator_.predict(*features, *specs[di]);
      cell.latency_ms = estimate_latency_ms(
          features->executed_instructions, cell.ipc, *specs[di]);
      cell.power_w = estimate_power_w(cell.ipc, *specs[di]);
      if (cache_ != nullptr && status == CellStatus::kOk) {
        try {
          cache_->put(
              SweepCache::cell_key(topo.hash, devices[di], bundle_key_),
              {cell.ipc, cell.latency_ms, cell.power_w});
        } catch (const std::exception&) {
          // The cell is in hand — failing to persist it must not fail
          // the sweep.
        }
      }
    }
  });

  // ---- assemble: model-major cells, then the constraint verdicts ----
  SweepResult result;
  result.unique_topologies = topologies.size();
  result.duplicate_models = request.models.size() - topologies.size();
  result.sweep_cache_hits = cache_hits.load();
  result.features_computed = features_computed.load();
  result.cells.reserve(request.models.size() * devices.size());
  for (std::size_t mi = 0; mi < request.models.size(); ++mi) {
    const std::vector<CellValue>& row = values[topology_of_model[mi]];
    for (std::size_t di = 0; di < devices.size(); ++di) {
      const CellValue& v = row[di];
      SweepCell cell;
      cell.model = request.models[mi];
      cell.device = devices[di];
      cell.status = v.status;
      cell.cached = v.cached;
      cell.predicted_ipc = v.ipc;
      cell.latency_ms = v.latency_ms;
      cell.power_w = v.power_w;
      cell.error = v.error;
      if (v.status == CellStatus::kDegraded) ++result.degraded_cells;
      if (v.status == CellStatus::kFailed) ++result.failed_cells;
      result.cells.push_back(std::move(cell));
    }
  }

  std::vector<DeviceCost> costs;
  costs.reserve(specs.size());
  for (const gpu::DeviceSpec* spec : specs)
    costs.push_back({spec->has_cost_usd() ? spec->cost_usd : -1.0});
  result.ranking =
      summarize_cells(result.cells, devices, costs, request.constraints);
  mark_pareto(result.ranking);
  rank_summaries(result.ranking, request.constraints);
  for (const DeviceSummary& s : result.ranking)
    if (s.pareto) result.pareto.push_back(s.device);

  result.elapsed_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace gpuperf::dse
