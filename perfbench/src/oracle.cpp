#include "oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "cnn/zoo.hpp"
#include "common/strings.hpp"
#include "gpu/device_db.hpp"
#include "serve/errors.hpp"

namespace perfbench {

using gpuperf::serve::JsonWriter;

std::uint64_t fnv1a64(std::string_view data, std::uint64_t hash) {
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string mask_number(std::string body, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return body;
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
  return body.replace(start, end - start, 1, '*');
}

gpuperf::dse::SweepRequest sweep_request_from(
    const gpuperf::serve::Request& request) {
  using gpuperf::parse_double;
  if (request.verb != "dse" || request.cmd.positional.empty())
    throw std::invalid_argument("not a dse request: " + request.raw);
  gpuperf::dse::SweepRequest out;
  const std::string& spec = request.cmd.positional.front();
  if (spec == "all") {
    for (const auto& entry : gpuperf::cnn::zoo::all_models())
      out.models.push_back(entry.name);
  } else {
    for (const std::string& part : gpuperf::split(spec, ',')) {
      const std::string name{gpuperf::trim(part)};
      if (!name.empty()) out.models.push_back(name);
    }
  }
  for (const std::string& part :
       gpuperf::split(request.cmd.flag_or("devices", ""), ',')) {
    const std::string name{gpuperf::trim(part)};
    if (!name.empty()) out.devices.push_back(name);
  }
  const auto flag = [&](const char* key, double fallback) {
    const std::string value = request.cmd.flag_or(key, "");
    return value.empty() ? fallback : parse_double(value);
  };
  gpuperf::dse::Constraints& c = out.constraints;
  c.max_latency_ms = flag("max-latency-ms", 0.0);
  c.max_power_w = flag("max-power-w", 0.0);
  c.max_cost_usd = flag("max-cost-usd", 0.0);
  c.w_latency = flag("w-latency", 1.0);
  c.w_power = flag("w-power", 0.0);
  c.w_cost = flag("w-cost", 0.0);
  out.allow_degrade = !request.cmd.has_flag("no-degrade");
  return out;
}

Oracle::Oracle(
    std::shared_ptr<const gpuperf::core::PerformanceEstimator> estimator)
    : estimator_(std::move(estimator)) {
  for (const auto& entry : gpuperf::cnn::zoo::all_models())
    models_.push_back(entry.name);
  for (const gpuperf::gpu::DeviceSpec& device :
       gpuperf::gpu::device_database())
    devices_.push_back(&device);
  const gpuperf::core::FeatureExtractor extractor;
  for (const std::string& model : models_) {
    features_.push_back(std::make_shared<const gpuperf::core::ModelFeatures>(
        extractor.compute(gpuperf::cnn::zoo::build(model))));
    for (const gpuperf::gpu::DeviceSpec* device : devices_)
      ipc_.push_back(estimator_->predict(*features_.back(), *device));
  }
}

std::size_t Oracle::model_index(const std::string& name) const {
  const auto it = std::find(models_.begin(), models_.end(), name);
  if (it == models_.end())
    throw std::invalid_argument("not a zoo model: " + name);
  return static_cast<std::size_t>(it - models_.begin());
}

std::string Oracle::predict_body(std::size_t model, std::size_t device,
                                 bool cached) const {
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "predict")
      .field("model", std::string_view(models_[model]))
      .field("device", std::string_view(devices_[device]->name))
      .field("ipc", ipc(model, device))
      .field("cached", cached)
      .field("degraded", false)
      .end_object();
  return json.str();
}

std::string Oracle::rank_body(std::size_t model) const {
  struct Row {
    std::size_t device;
    double ipc;
    double throughput;
  };
  std::vector<Row> rows;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    const double v = ipc(model, d);
    rows.push_back(
        {d, v, v * devices_[d]->sm_count * devices_[d]->boost_clock_mhz});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.throughput > b.throughput;
  });
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "rank")
      .field("model", std::string_view(models_[model]))
      .field("degraded", false);
  json.begin_array("ranking");
  for (const Row& row : rows)
    json.begin_object()
        .field("device", std::string_view(devices_[row.device]->name))
        .field("ipc", row.ipc)
        .field("throughput_proxy", row.throughput)
        .end_object();
  json.end_array().end_object();
  return json.str();
}

gpuperf::dse::SweepResult Oracle::reference_sweep(
    const gpuperf::dse::SweepRequest& request) const {
  gpuperf::dse::SweepEngine::Options options;
  options.feature_source = [this](const std::string& model,
                                  const gpuperf::Deadline&) {
    return features_[model_index(model)];
  };
  return gpuperf::dse::SweepEngine(*estimator_, std::move(options))
      .run(request);
}

std::string Oracle::dse_body(const std::string& line) const {
  const gpuperf::serve::Request request = gpuperf::serve::parse_request(line);
  const gpuperf::dse::SweepRequest sweep = sweep_request_from(request);
  const gpuperf::dse::SweepResult result = reference_sweep(sweep);
  if (!result.feasible())
    return gpuperf::serve::error_response(
               gpuperf::serve::ErrorCode::kConstraintInfeasible,
               "no device satisfies the constraints (" +
                   std::to_string(result.ranking.size()) +
                   " candidates, all filtered); relax a bound or widen "
                   "--devices")
        .body;

  const auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("endpoint", "dse")
      .field("models", u64(sweep.models.size()))
      .field("devices", u64(sweep.devices.empty()
                                ? gpuperf::gpu::dse_devices().size()
                                : sweep.devices.size()))
      .field("unique_topologies", u64(result.unique_topologies))
      .field("duplicate_models", u64(result.duplicate_models))
      .field("sweep_cache_hits", u64(0))
      .field("features_computed", u64(0))
      .field("degraded_cells", u64(result.degraded_cells))
      .field("failed_cells", u64(result.failed_cells))
      .field("degraded", result.degraded_cells > 0)
      .field("elapsed_ms", 0.0)
      .field("pareto", std::string_view(gpuperf::join(result.pareto, ",")));
  json.begin_array("recommendations");
  for (const gpuperf::dse::DeviceSummary& s : result.ranking) {
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
        .field("cells_degraded", static_cast<std::int64_t>(s.cells_degraded))
        .field("cells_failed", static_cast<std::int64_t>(s.cells_failed));
    if (!s.feasible)
      json.field("reason", std::string_view(s.infeasible_reason));
    json.end_object();
  }
  json.end_array().end_object();
  return mask_telemetry(json.str());
}

std::uint64_t Oracle::digest() const {
  std::uint64_t hash = fnv1a64("");
  for (std::size_t m = 0; m < models_.size(); ++m) {
    for (std::size_t d = 0; d < devices_.size(); ++d)
      hash = fnv1a64(predict_body(m, d, false), hash);
    hash = fnv1a64(rank_body(m), hash);
  }
  return hash;
}

std::string mask_telemetry(std::string body) {
  for (const char* key : {"sweep_cache_hits", "features_computed", "elapsed_ms"})
    body = mask_number(std::move(body), key);
  return body;
}

bool dse_matches(const std::string& expected, const std::string& actual) {
  return mask_telemetry(actual) == expected;
}

}  // namespace perfbench
