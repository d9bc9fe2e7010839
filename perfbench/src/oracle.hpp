// Answer oracle: the response every request must get, computed without
// the service's caches, batcher or sockets.
//
// Predict and rank answers come from a table of expected IPCs for every
// (zoo model, device) pair, each one
// PerformanceEstimator::predict(FeatureExtractor::compute(zoo::build(m)),
// device) on the session's estimator snapshot.  A dse answer comes from
// a direct dse::SweepEngine::run fed by the same features.  Expected
// bodies are printed with serve::JsonWriter, exactly as the service
// prints them, and compared byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.hpp"
#include "dse/sweep.hpp"
#include "gpu/device_spec.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

/// FNV-1a, 64 bit.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Replace the number that follows `"key":` with `*` (for fields such as
/// elapsed_ms whose value is a wall time, not an answer).
std::string mask_number(std::string body, std::string_view key);

/// The SweepRequest a `dse` request line asks for, parsed the way the
/// service's dse verb parses it.  Throws on a malformed line.
gpuperf::dse::SweepRequest sweep_request_from(
    const gpuperf::serve::Request& request);

class Oracle {
 public:
  /// Computes features for every zoo model and the expected IPC of
  /// every (model, device) pair on `estimator`.
  explicit Oracle(std::shared_ptr<const gpuperf::core::PerformanceEstimator>
                      estimator);

  const std::vector<std::string>& models() const { return models_; }
  const std::vector<const gpuperf::gpu::DeviceSpec*>& devices() const {
    return devices_;
  }
  std::size_t model_index(const std::string& name) const;

  double ipc(std::size_t model, std::size_t device) const {
    return ipc_[model * devices_.size() + device];
  }
  const gpuperf::core::ModelFeatures& features(std::size_t model) const {
    return *features_[model];
  }

  /// Expected `predict <model> <device>` body.
  std::string predict_body(std::size_t model, std::size_t device,
                           bool cached) const;
  /// Expected `rank <model>` body.
  std::string rank_body(std::size_t model) const;

  /// Reference sweep for a request, by a direct SweepEngine::run.
  gpuperf::dse::SweepResult reference_sweep(
      const gpuperf::dse::SweepRequest& request) const;
  /// Expected `dse …` body, with its cache and timing telemetry masked
  /// (mask_telemetry).  Infeasible constraints give the typed
  /// constraint_infeasible error body.
  std::string dse_body(const std::string& line) const;

  /// Digest of every expected predict and rank body: equal digests
  /// mean equal answers.
  std::uint64_t digest() const;

 private:
  std::shared_ptr<const gpuperf::core::PerformanceEstimator> estimator_;
  std::vector<std::string> models_;
  std::vector<const gpuperf::gpu::DeviceSpec*> devices_;
  std::vector<std::shared_ptr<const gpuperf::core::ModelFeatures>> features_;
  std::vector<double> ipc_;
};

/// Mask the dse fields that describe how an answer was obtained rather
/// than the answer: sweep_cache_hits, features_computed, elapsed_ms.
std::string mask_telemetry(std::string body);

/// True when a dse response equals the expected body once its telemetry
/// is masked.
bool dse_matches(const std::string& expected, const std::string& actual);

}  // namespace perfbench
