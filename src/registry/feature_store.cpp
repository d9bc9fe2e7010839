#include "registry/feature_store.hpp"

#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "cnn/model_io.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "registry/hash.hpp"

namespace fs = std::filesystem;

namespace gpuperf::registry {

namespace {

/// The journal record payload: line-oriented and human-readable, like
/// every other format in the repo.  Integrity lives in the record's
/// CRC-32, not in the payload.
std::string entry_body(std::uint64_t topology,
                       const core::ModelFeatures& f) {
  std::ostringstream os;
  os << "gpuperf-features v1\n";
  os << "topology " << hex64(topology) << "\n";
  os << "model " << f.model_name << "\n";
  os << "executed_instructions " << f.executed_instructions << "\n";
  os << "trainable_params " << f.trainable_params << "\n";
  os << "macs " << f.macs << "\n";
  os << "neurons " << f.neurons << "\n";
  os << "weighted_layers " << f.weighted_layers << "\n";
  os << "dca_seconds " << full_precision(f.dca_seconds) << "\n";
  return os.str();
}

/// Parse a "gpuperf-features v1" payload into (topology, features);
/// nullopt on anything malformed.
std::optional<
    std::pair<std::uint64_t, std::shared_ptr<core::ModelFeatures>>>
parse_body(const std::string& body) {
  auto out = std::make_shared<core::ModelFeatures>();
  std::uint64_t topology = 0;
  bool have_topology = false;
  try {
    std::istringstream is(body);
    std::string line;
    if (!std::getline(is, line) || trim(line) != "gpuperf-features v1")
      return std::nullopt;
    while (std::getline(is, line)) {
      if (trim(line).empty()) continue;
      const auto kv = split_ws(line);
      if (kv.size() != 2) return std::nullopt;
      if (kv[0] == "topology") {
        topology = parse_hex64(kv[1]);
        have_topology = true;
      } else if (kv[0] == "model") {
        out->model_name = kv[1];
      } else if (kv[0] == "executed_instructions") {
        out->executed_instructions = parse_int(kv[1]);
      } else if (kv[0] == "trainable_params") {
        out->trainable_params = parse_int(kv[1]);
      } else if (kv[0] == "macs") {
        out->macs = parse_int(kv[1]);
      } else if (kv[0] == "neurons") {
        out->neurons = parse_int(kv[1]);
      } else if (kv[0] == "weighted_layers") {
        out->weighted_layers = parse_int(kv[1]);
      } else if (kv[0] == "dca_seconds") {
        out->dca_seconds = parse_double(kv[1]);
      } else {
        return std::nullopt;
      }
    }
  } catch (const CheckError&) {
    return std::nullopt;  // unparsable numbers
  }
  if (!have_topology) return std::nullopt;
  return std::make_pair(topology, std::move(out));
}

}  // namespace

FeatureStore::FeatureStore(std::string root, const InputLimits& limits)
    : root_(std::move(root)),
      log_((fs::path(root_) / "store.journal").string(), "GPFR",
           limits.max_store_record_bytes, "feature-store record bytes") {
  GP_CHECK_MSG(!root_.empty(), "feature store root must not be empty");
  fs::create_directories(root_);
  replayed_ = log_.replay([this](const std::string& payload) {
    auto parsed = parse_body(payload);
    if (!parsed) return false;
    index_[parsed->first] = std::move(parsed->second);
    return true;
  });
}

std::uint64_t FeatureStore::topology_hash(const cnn::Model& model) {
  return fnv1a64(cnn::serialize_model(model));
}

std::shared_ptr<const core::ModelFeatures> FeatureStore::get(
    std::uint64_t topology) const {
  GPUPERF_FAULT_POINT("store.get");  // a dead volume: read throws
  if (GPUPERF_FAULT_CORRUPT("store.get")) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(topology);
  return it == index_.end() ? nullptr : it->second;
}

void FeatureStore::put(std::uint64_t topology,
                       const core::ModelFeatures& features) {
  GPUPERF_FAULT_POINT("store.put");  // a full/dead volume: write throws
  const std::string payload = entry_body(topology, features);
  std::lock_guard<std::mutex> lock(mutex_);
  log_.append(payload);
  index_[topology] = std::make_shared<core::ModelFeatures>(features);
}

FeatureStore::Lookup FeatureStore::get_or_compute(
    std::uint64_t topology,
    const std::function<core::ModelFeatures()>& compute) {
  Lookup out;
  try {
    out.features = get(topology);
  } catch (const std::exception& e) {
    GP_LOG(kWarn) << "feature store read failed: " << e.what();
    out.read_failed = true;
  }
  if (out.features) {
    out.hit = true;
    return out;
  }
  auto computed = std::make_shared<const core::ModelFeatures>(compute());
  try {
    put(topology, *computed);
  } catch (const std::exception& e) {
    GP_LOG(kWarn) << "feature store write failed: " << e.what();
    out.write_failed = true;
  }
  out.features = std::move(computed);
  return out;
}

std::size_t FeatureStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

void FeatureStore::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> payloads;
  payloads.reserve(index_.size());
  for (const auto& [topology, features] : index_)
    payloads.push_back(entry_body(topology, *features));
  log_.rewrite(payloads);
}

}  // namespace gpuperf::registry
