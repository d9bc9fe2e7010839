#include "dse/sweep_cache.hpp"

#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/strings.hpp"
#include "registry/hash.hpp"

namespace fs = std::filesystem;

namespace gpuperf::dse {

namespace {

std::string entry_body(const std::string& key,
                       const SweepCache::Entry& e) {
  std::ostringstream os;
  os << "gpuperf-sweep v1\n";
  os << "key " << key << "\n";
  os << "ipc " << full_precision(e.predicted_ipc) << "\n";
  os << "latency_ms " << full_precision(e.latency_ms) << "\n";
  os << "power_w " << full_precision(e.power_w) << "\n";
  return os.str();
}

/// Parse a "gpuperf-sweep v1" payload into (key, entry); nullopt on
/// anything malformed.
std::optional<
    std::pair<std::string, std::shared_ptr<SweepCache::Entry>>>
parse_body(const std::string& body) {
  auto out = std::make_shared<SweepCache::Entry>();
  std::string key;
  try {
    std::istringstream is(body);
    std::string line;
    if (!std::getline(is, line) || trim(line) != "gpuperf-sweep v1")
      return std::nullopt;
    while (std::getline(is, line)) {
      if (trim(line).empty()) continue;
      const auto kv = split_ws(line);
      if (kv.size() != 2) return std::nullopt;
      if (kv[0] == "key") {
        key = kv[1];
      } else if (kv[0] == "ipc") {
        out->predicted_ipc = parse_double(kv[1]);
      } else if (kv[0] == "latency_ms") {
        out->latency_ms = parse_double(kv[1]);
      } else if (kv[0] == "power_w") {
        out->power_w = parse_double(kv[1]);
      } else {
        return std::nullopt;
      }
    }
  } catch (const CheckError&) {
    return std::nullopt;  // unparsable numbers
  }
  if (key.empty()) return std::nullopt;
  return std::make_pair(std::move(key), std::move(out));
}

}  // namespace

SweepCache::SweepCache(std::string root, const InputLimits& limits)
    : root_(std::move(root)),
      log_((fs::path(root_) / "sweep.journal").string(), "GPSC",
           limits.max_store_record_bytes, "sweep-cache record bytes") {
  GP_CHECK_MSG(!root_.empty(), "sweep cache root must not be empty");
  fs::create_directories(root_);
  replayed_ = log_.replay([this](const std::string& payload) {
    auto parsed = parse_body(payload);
    if (!parsed) return false;
    index_[parsed->first] = std::move(parsed->second);
    return true;
  });
}

std::string SweepCache::cell_key(std::uint64_t topology,
                                 const std::string& device,
                                 const std::string& bundle_key) {
  GP_CHECK_MSG(!device.empty() && !bundle_key.empty(),
               "sweep cell key needs a device and a bundle key");
  // ':' never appears in device names or bundle keys (registry versions
  // are "v<counter>-<hash>", ad-hoc keys are hex), so the joined key
  // parses back unambiguously and survives the journal's whitespace-
  // split payload format.
  return registry::hex64(topology) + ':' + device + ':' + bundle_key;
}

std::shared_ptr<const SweepCache::Entry> SweepCache::get(
    const std::string& key) const {
  GPUPERF_FAULT_POINT("sweep_cache.get");  // a dead volume: read throws
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void SweepCache::put(const std::string& key, const Entry& entry) {
  GPUPERF_FAULT_POINT("sweep_cache.put");  // a full/dead volume
  const std::string payload = entry_body(key, entry);
  std::lock_guard<std::mutex> lock(mutex_);
  log_.append(payload);
  index_[key] = std::make_shared<const Entry>(entry);
}

std::size_t SweepCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

}  // namespace gpuperf::dse
