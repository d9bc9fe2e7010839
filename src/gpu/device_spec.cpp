#include "gpu/device_spec.hpp"

#include "common/check.hpp"

namespace gpuperf::gpu {

int DeviceSpec::cores_per_sm() const {
  GP_CHECK(sm_count > 0);
  return cuda_cores / sm_count;
}

double DeviceSpec::fp32_tflops() const {
  return 2.0 * cuda_cores * boost_clock_mhz * 1e6 / 1e12;
}

double DeviceSpec::bytes_per_cycle() const {
  GP_CHECK(boost_clock_mhz > 0.0);
  return memory_bandwidth_gbs * 1e9 / (boost_clock_mhz * 1e6);
}

std::array<double, DeviceSpec::kFeatureCount> DeviceSpec::features() const {
  // Memory bandwidth leads: it is the architecturally dominant factor
  // for CNN inference (and the paper's top Table III predictor).
  return {
      memory_bandwidth_gbs,
      static_cast<double>(cuda_cores),
      static_cast<double>(sm_count),
      base_clock_mhz,
      boost_clock_mhz,
      memory_gb,
      static_cast<double>(l2_cache_kb),
      static_cast<double>(registers_per_sm),
  };
}

const std::vector<std::string>& DeviceSpec::feature_names() {
  static const std::vector<std::string> names = {
      "mem_bandwidth_gbs", "cuda_cores",  "sm_count",
      "base_clock_mhz",    "boost_clock_mhz", "mem_size_gb",
      "l2_cache_kb",       "registers_per_sm",
  };
  return names;
}

}  // namespace gpuperf::gpu
