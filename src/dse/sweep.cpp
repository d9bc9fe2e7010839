#include "dse/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
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

  // ---- resolve: one lookup per name, to its static table entry ------
  // The plain messages are the `dse` verb's wire text.
  struct Requested {
    const cnn::zoo::ZooEntry* entry = nullptr;
    std::size_t topology = 0;
  };
  std::vector<Requested> requested;
  requested.reserve(request.models.size());
  for (const std::string& name : request.models) {
    const cnn::zoo::ZooEntry* entry = cnn::zoo::find(name);
    if (entry == nullptr) throw CheckError("unknown model '" + name + "'");
    requested.push_back({entry, 0});
  }
  const std::vector<std::string>& device_names =
      request.devices.empty() ? gpu::dse_devices() : request.devices;
  const std::size_t n_devices = device_names.size();
  std::vector<const gpu::DeviceSpec*> specs;
  specs.reserve(n_devices);
  for (const std::string& name : device_names) {
    const gpu::DeviceSpec* spec = gpu::find_device(name);
    if (spec == nullptr) throw CheckError("unknown device '" + name + "'");
    GP_CHECK_MSG(std::find(specs.begin(), specs.end(), spec) == specs.end(),
                 "device '" << name << "' is listed twice");
    specs.push_back(spec);
  }
  check_constraints(request.constraints);

  // ---- plan: deduplicate the model list by topology hash ------------
  // The hash covers the model name, so only a repeated name shares a
  // DCA pass, and a sweep has at most one topology per zoo entry: the
  // plan's own vector is the index.  A model is built here only without
  // a hash source.
  struct Topology {
    std::uint64_t hash = 0;
    const cnn::zoo::ZooEntry* entry = nullptr;  // first requester
    std::optional<cnn::Model> model;            // built on first use
    CellStatus status = CellStatus::kFailed;
    std::string error;  // kFailed only, shared by the row's cells
  };
  std::vector<Topology> topologies;
  topologies.reserve(requested.size());
  for (Requested& r : requested) {
    std::optional<cnn::Model> model;
    if (!topology_hash_) model = r.entry->build();
    const std::uint64_t hash =
        model ? registry::FeatureStore::topology_hash(*model)
              : topology_hash_(r.entry->name);
    const auto it =
        std::find_if(topologies.begin(), topologies.end(),
                     [hash](const Topology& t) { return t.hash == hash; });
    r.topology = static_cast<std::size_t>(it - topologies.begin());
    if (it != topologies.end()) continue;
    Topology& fresh = topologies.emplace_back();
    fresh.hash = hash;
    fresh.entry = r.entry;
    fresh.model = std::move(model);
  }

  // ---- execute: held features inline, the misses over the pool ------
  // One flat topologies x devices table of plain results.
  struct CellValue {
    double ipc = 0.0;
    double latency_ms = 0.0;
    double power_w = 0.0;
  };
  std::vector<CellValue> values(topologies.size() * n_devices);
  std::atomic<std::size_t> features_computed{0};

  // One topology's features, then its row of cells.  `held` is what the
  // probe found; without it the features are acquired here.
  using FeaturePtr = std::shared_ptr<const core::ModelFeatures>;
  const auto answer = [&](std::size_t ti, FeaturePtr held) {
    Topology& topo = topologies[ti];
    const auto model = [&]() -> const cnn::Model& {  // built on first use
      if (!topo.model) topo.model = topo.entry->build();
      return *topo.model;
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
    topo.status = CellStatus::kOk;
    try {
      GPUPERF_FAULT_POINT_D("dse.features", &deadline);
      if (held)
        features = std::move(held);
      else if (feature_source_)
        features = feature_source_(topo.entry->name, deadline);
      else
        features = own_features();
      GP_CHECK_MSG(features != nullptr, "feature source returned null");
      features_computed.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& primary) {
      features = nullptr;
      topo.status = CellStatus::kFailed;
      if (request.allow_degrade) {
        try {
          features = std::make_shared<const core::ModelFeatures>(
              core::static_only_features(analyzer_.analyze(model())));
          topo.status = CellStatus::kDegraded;
        } catch (const std::exception& fallback) {
          topo.error = fallback.what();
        }
      } else {
        topo.error = primary.what();
      }
    }
    if (!features) return;  // the row stays zero, its cells failed

    CellValue* row = values.data() + ti * n_devices;
    for (std::size_t di = 0; di < n_devices; ++di) {
      const gpu::DeviceSpec& device = *specs[di];
      row[di].ipc = estimator_.predict(*features, device);
      row[di].latency_ms = estimate_latency_ms(
          features->executed_instructions, row[di].ipc, device);
      row[di].power_w = estimate_power_w(row[di].ipc, device);
    }
  };

  // A held topology costs a few tree walks, less than waking a pool
  // worker, so it is answered right here.  Only the misses, each a
  // feature acquisition (a DCA pass when nothing holds the features),
  // fan out; parallel_for runs a single miss inline.
  std::vector<std::size_t> misses;
  for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
    FeaturePtr held = probe_ ? probe_(topologies[ti].entry->name) : nullptr;
    if (held)
      answer(ti, std::move(held));
    else
      misses.push_back(ti);
  }
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::shared();
  pool.parallel_for(misses.size(),
                    [&](std::size_t i) { answer(misses[i], nullptr); });

  // ---- assemble: model-major cells, then the constraint verdicts ----
  // A cell views the static zoo and device-table names; only a failed
  // cell copies its topology's message.
  SweepResult result;
  result.unique_topologies = topologies.size();
  result.duplicate_models = requested.size() - topologies.size();
  result.features_computed = features_computed.load();
  result.cells.reserve(requested.size() * n_devices);
  for (const Requested& r : requested) {
    const Topology& topo = topologies[r.topology];
    const CellValue* row = values.data() + r.topology * n_devices;
    for (std::size_t di = 0; di < n_devices; ++di) {
      SweepCell& cell = result.cells.emplace_back();
      cell.model = r.entry->name;
      cell.device = specs[di]->name;
      cell.status = topo.status;
      cell.predicted_ipc = row[di].ipc;
      cell.latency_ms = row[di].latency_ms;
      cell.power_w = row[di].power_w;
      if (topo.status == CellStatus::kFailed) cell.error = topo.error;
    }
    if (topo.status == CellStatus::kDegraded)
      result.degraded_cells += n_devices;
    if (topo.status == CellStatus::kFailed) result.failed_cells += n_devices;
  }

  std::vector<DeviceCost> costs;
  costs.reserve(n_devices);
  for (const gpu::DeviceSpec* spec : specs)
    costs.push_back({spec->has_cost_usd() ? spec->cost_usd : -1.0});
  result.ranking = summarize_cells(result.cells, device_names, costs,
                                   request.constraints);
  mark_pareto(result.ranking);
  rank_summaries(result.ranking, request.constraints);
  result.pareto.reserve(result.ranking.size());
  for (const DeviceSummary& s : result.ranking)
    if (s.pareto) result.pareto.push_back(s.device);

  result.elapsed_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace gpuperf::dse
