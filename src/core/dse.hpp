// Design-space exploration (the paper's Section V application): rank
// candidate GPGPUs for a CNN using the predictive model, and compare
// the cost of doing so against profiling every device —
//   T_est    = t_dca + n * t_pm
//   T_measur = n * t_p
// (Table IV).
#pragma once

#include <string>
#include <vector>

#include "core/estimator.hpp"

namespace gpuperf::core {

struct DeviceRanking {
  std::string device;
  double predicted_ipc = 0.0;
  /// Predicted relative throughput proxy: IPC * SMs * boost clock.
  double predicted_throughput = 0.0;
};

struct DseTiming {
  std::string model;
  double t_dca = 0.0;  // dynamic code analysis, seconds (measured)
  double t_pm = 0.0;   // one model inference, seconds (measured)
  double t_p = 0.0;    // one nvprof profiling pass, seconds (modeled)

  double t_est(int n_devices) const { return t_dca + n_devices * t_pm; }
  double t_measur(int n_devices) const { return n_devices * t_p; }
  double speedup(int n_devices) const {
    return t_measur(n_devices) / t_est(n_devices);
  }
};

class DseExplorer {
 public:
  /// The estimator is shared, not owned, and never mutated: every
  /// method runs through the const predict path, so any number of
  /// threads (the src/dse sweep engine's workers) can explore through
  /// one trained estimator without aliasing doubt.
  explicit DseExplorer(const PerformanceEstimator& estimator);

  /// Predict a CNN's IPC on every listed device from its features (one
  /// DCA pass serves every device), best throughput proxy first; equal
  /// proxies keep the listed order.  The one device ranker: the `rank`
  /// verb, `gpuperf rank` and the examples all call it.
  std::vector<DeviceRanking> rank_devices(
      const ModelFeatures& features,
      const std::vector<std::string>& device_names) const;

  /// Timing comparison for one CNN: measured t_dca / t_pm from this
  /// process plus the modeled profiling cost averaged over `devices`.
  /// t_dca is a cold dynamic code analysis: this empties the
  /// process-wide launch memo (ptx::InstructionCounter::reset_memo())
  /// first, so every counter's next count of a known model runs cold.
  DseTiming time_model(const std::string& zoo_model,
                       const std::vector<std::string>& device_names) const;

 private:
  const PerformanceEstimator& estimator_;
};

}  // namespace gpuperf::core
