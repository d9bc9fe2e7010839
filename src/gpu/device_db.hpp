// Built-in database of real NVIDIA GPGPU specifications.  The paper
// trains on the GTX 1080 Ti and V100S and times its DSE scenario over
// up to seven devices; the extra entries support cross-platform
// prediction experiments.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "gpu/device_spec.hpp"

namespace gpuperf::gpu {

/// All known devices.
const std::vector<DeviceSpec>& device_database();

/// Lookup by short id ("gtx1080ti", "v100s", ...); nullptr for an
/// unknown name.  The one lookup that both validates and resolves.
const DeviceSpec* find_device(std::string_view name);

/// find_device() that GP_CHECK-fails on unknown names.
const DeviceSpec& device(const std::string& name);

bool has_device(const std::string& name);

/// Short ids of every device_database() entry, in database order.
const std::vector<std::string>& device_names();

/// The two training devices of the paper's phase 1.
const std::vector<std::string>& training_devices();

/// The seven-device DSE sweep of Table IV (ordered).
const std::vector<std::string>& dse_devices();

}  // namespace gpuperf::gpu
