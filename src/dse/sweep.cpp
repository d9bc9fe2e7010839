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
#include "registry/feature_store.hpp"

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

SweepEngine::SweepEngine(const core::PerformanceEstimator& estimator)
    : SweepEngine(estimator, Options()) {}

SweepEngine::SweepEngine(const core::PerformanceEstimator& estimator,
                         Options options)
    : estimator_(estimator),
      store_(options.store),
      pool_(options.pool),
      feature_source_(std::move(options.feature_source)),
      topology_hash_(std::move(options.topology_hash)),
      probe_(std::move(options.probe)) {
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

  // ---- execute: held features inline, the misses over the pool ------
  struct CellValue {
    CellStatus status = CellStatus::kFailed;
    double ipc = 0.0;
    double latency_ms = 0.0;
    double power_w = 0.0;
    std::string error;
  };
  std::vector<std::vector<CellValue>> values(
      topologies.size(), std::vector<CellValue>(devices.size()));
  std::atomic<std::size_t> features_computed{0};

  // One topology's features, then its row of cells.  `held` is what the
  // probe found; without it the features are acquired here.
  using FeaturePtr = std::shared_ptr<const core::ModelFeatures>;
  const auto answer = [&](std::size_t ti, FeaturePtr held) {
    const Topology& topo = topologies[ti];
    std::vector<CellValue>& row = values[ti];
    const auto model = [&]() -> const cnn::Model& {  // built on first use
      if (!models[ti]) models[ti] = cnn::zoo::build(topo.representative);
      return *models[ti];
    };

    // Each topology charges a private copy of the request deadline: the
    // wall clock is naturally shared, a shared step counter would race
    // across worker threads.
    const Deadline deadline = request.deadline;
    // Without a feature source: read through the store, if any.
    const auto own_features = [&] {
      const auto compute = [&] {
        return extractor_.compute(model(), deadline);
      };
      return store_ != nullptr
                 ? store_->get_or_compute(topo.hash, compute).features
                 : std::make_shared<const core::ModelFeatures>(compute());
    };
    FeaturePtr features;
    CellStatus status = CellStatus::kOk;
    std::string error;
    try {
      GPUPERF_FAULT_POINT_D("dse.features", &deadline);
      if (held)
        features = std::move(held);
      else if (feature_source_)
        features = feature_source_(topo.representative, deadline);
      else
        features = own_features();
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

    for (std::size_t di = 0; di < devices.size(); ++di) {
      CellValue& cell = row[di];
      if (!features) {
        cell = {CellStatus::kFailed, 0.0, 0.0, 0.0, error};
        continue;
      }
      cell.status = status;
      cell.ipc = estimator_.predict(*features, *specs[di]);
      cell.latency_ms = estimate_latency_ms(
          features->executed_instructions, cell.ipc, *specs[di]);
      cell.power_w = estimate_power_w(cell.ipc, *specs[di]);
    }
  };

  // A held topology costs a few tree walks, less than waking a pool
  // worker, so it is answered right here.  Only the misses, each a
  // feature acquisition (a DCA pass when nothing holds the features),
  // fan out; parallel_for runs a single miss inline.
  std::vector<std::size_t> misses;
  for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
    FeaturePtr held = probe_ ? probe_(topologies[ti].representative)
                             : nullptr;
    if (held)
      answer(ti, std::move(held));
    else
      misses.push_back(ti);
  }
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::shared();
  pool.parallel_for(misses.size(),
                    [&](std::size_t i) { answer(misses[i], nullptr); });

  // ---- assemble: model-major cells, then the constraint verdicts ----
  SweepResult result;
  result.unique_topologies = topologies.size();
  result.duplicate_models = request.models.size() - topologies.size();
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
