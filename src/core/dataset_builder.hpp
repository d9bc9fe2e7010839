// Training-dataset creation (Fig. 3, phase 1): profile every CNN of
// the zoo on every training GPU, pair the measured IPC response with
// the static/dynamic CNN features and the device features.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "ml/dataset.hpp"

namespace gpuperf::core {

struct DatasetOptions {
  /// Table I zoo names; empty = all 31.
  std::vector<std::string> models;
  /// Device short ids; empty = the paper's two training devices.
  std::vector<std::string> devices;
  /// Explicit device specs (e.g. DVFS operating points from
  /// gpu::dvfs_grid); when non-empty they are used instead of
  /// `devices`.
  std::vector<gpu::DeviceSpec> custom_devices;
  /// Add the extended CNN predictors (MACs, neurons, layers — the
  /// paper's future-work feature set) to every row.
  bool extended_cnn_features = false;
  /// Profiling (simulator) measurement-noise stddev.
  double noise_stddev = 0.02;
  std::uint64_t seed = 0x67707570ULL;
};

class DatasetBuilder {
 public:
  explicit DatasetBuilder(DatasetOptions options = {});

  /// Build the full dataset; rows are tagged "<model>@<device>".
  /// Feature extraction runs once per model and is shared across
  /// devices (the cross-platform design of the paper).
  ml::Dataset build();

 private:
  DatasetOptions options_;
  FeatureExtractor extractor_;
};

}  // namespace gpuperf::core
