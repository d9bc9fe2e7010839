// GPGPU architectural descriptions — the c1..cm device predictors of
// the paper's training vector (CUDA cores, frequency, memory bandwidth,
// L2 cache, registers, memory size).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpuperf::gpu {

struct DeviceSpec {
  std::string name;          // short id, e.g. "gtx1080ti"
  std::string full_name;     // "NVIDIA GeForce GTX 1080 Ti"
  std::string architecture;  // "Pascal"

  int sm_count = 0;
  int cuda_cores = 0;  // total FP32 lanes
  double base_clock_mhz = 0.0;
  double boost_clock_mhz = 0.0;
  double memory_bandwidth_gbs = 0.0;
  double memory_gb = 0.0;
  int l2_cache_kb = 0;
  int registers_per_sm = 65536;
  int shared_mem_per_sm_kb = 64;
  int max_warps_per_sm = 64;
  /// Board power limit, watts (drives the simulator's power model).
  double tdp_w = 250.0;
  /// Board price, USD (approximate launch MSRP) — the DSE constraint
  /// engine's cost axis.  0 means "not recorded"; check has_cost_usd()
  /// instead of trusting a magic zero.
  double cost_usd = 0.0;

  /// Optional-field accessors for the fleet-economics columns: a spec
  /// built by hand may leave them unset, and consumers (src/dse) must
  /// treat "unknown" differently from a legitimate value.
  bool has_tdp_w() const { return tdp_w > 0.0; }
  bool has_cost_usd() const { return cost_usd > 0.0; }

  int cores_per_sm() const;
  /// Peak FP32 throughput at boost clock, in TFLOP/s (2 ops per FMA).
  double fp32_tflops() const;
  /// DRAM bytes transferable per boost-clock cycle.
  double bytes_per_cycle() const;

  /// Feature row used by the predictive model, aligned with
  /// feature_names(); a fixed-size value, so a prediction builds it on
  /// the stack.
  static constexpr std::size_t kFeatureCount = 8;
  std::array<double, kFeatureCount> features() const;
  static const std::vector<std::string>& feature_names();
};

}  // namespace gpuperf::gpu
