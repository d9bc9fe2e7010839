#include "gpu/device_db.hpp"

#include "common/check.hpp"

namespace gpuperf::gpu {

const std::vector<DeviceSpec>& device_database() {
  static const std::vector<DeviceSpec> devices = [] {
    std::vector<DeviceSpec> d;

    DeviceSpec s;
    s.name = "gtx1080ti";
    s.cost_usd = 699;
    s.tdp_w = 250;
    s.full_name = "NVIDIA GeForce GTX 1080 Ti";
    s.architecture = "Pascal";
    s.sm_count = 28;
    s.cuda_cores = 3584;
    s.base_clock_mhz = 1481;
    s.boost_clock_mhz = 1582;
    s.memory_bandwidth_gbs = 484;
    s.memory_gb = 11;
    s.l2_cache_kb = 2816;
    s.shared_mem_per_sm_kb = 96;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "v100s";
    s.cost_usd = 5999;
    s.tdp_w = 250;
    s.full_name = "NVIDIA Tesla V100S PCIe 32GB";
    s.architecture = "Volta";
    s.sm_count = 80;
    s.cuda_cores = 5120;
    s.base_clock_mhz = 1245;
    s.boost_clock_mhz = 1597;
    s.memory_bandwidth_gbs = 1134;
    s.memory_gb = 32;
    s.l2_cache_kb = 6144;
    s.shared_mem_per_sm_kb = 96;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "quadrop1000";
    s.cost_usd = 349;
    s.tdp_w = 47;
    s.full_name = "NVIDIA Quadro P1000";
    s.architecture = "Pascal";
    s.sm_count = 5;
    s.cuda_cores = 640;
    s.base_clock_mhz = 1266;
    s.boost_clock_mhz = 1480;
    s.memory_bandwidth_gbs = 80;
    s.memory_gb = 4;
    s.l2_cache_kb = 1024;
    s.shared_mem_per_sm_kb = 96;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "teslat4";
    s.cost_usd = 2299;
    s.tdp_w = 70;
    s.full_name = "NVIDIA Tesla T4";
    s.architecture = "Turing";
    s.sm_count = 40;
    s.cuda_cores = 2560;
    s.base_clock_mhz = 585;
    s.boost_clock_mhz = 1590;
    s.memory_bandwidth_gbs = 320;
    s.memory_gb = 16;
    s.l2_cache_kb = 4096;
    s.shared_mem_per_sm_kb = 64;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "rtx2080ti";
    s.cost_usd = 999;
    s.tdp_w = 250;
    s.full_name = "NVIDIA GeForce RTX 2080 Ti";
    s.architecture = "Turing";
    s.sm_count = 68;
    s.cuda_cores = 4352;
    s.base_clock_mhz = 1350;
    s.boost_clock_mhz = 1545;
    s.memory_bandwidth_gbs = 616;
    s.memory_gb = 11;
    s.l2_cache_kb = 5632;
    s.shared_mem_per_sm_kb = 64;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "a100";
    s.cost_usd = 10000;
    s.tdp_w = 250;
    s.full_name = "NVIDIA A100 PCIe 40GB";
    s.architecture = "Ampere";
    s.sm_count = 108;
    s.cuda_cores = 6912;
    s.base_clock_mhz = 765;
    s.boost_clock_mhz = 1410;
    s.memory_bandwidth_gbs = 1555;
    s.memory_gb = 40;
    s.l2_cache_kb = 40960;
    s.shared_mem_per_sm_kb = 164;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "gtx1060";
    s.cost_usd = 249;
    s.tdp_w = 120;
    s.full_name = "NVIDIA GeForce GTX 1060 6GB";
    s.architecture = "Pascal";
    s.sm_count = 10;
    s.cuda_cores = 1280;
    s.base_clock_mhz = 1506;
    s.boost_clock_mhz = 1708;
    s.memory_bandwidth_gbs = 192;
    s.memory_gb = 6;
    s.l2_cache_kb = 1536;
    s.shared_mem_per_sm_kb = 96;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "titanv";
    s.cost_usd = 2999;
    s.tdp_w = 250;
    s.full_name = "NVIDIA TITAN V";
    s.architecture = "Volta";
    s.sm_count = 80;
    s.cuda_cores = 5120;
    s.base_clock_mhz = 1200;
    s.boost_clock_mhz = 1455;
    s.memory_bandwidth_gbs = 653;
    s.memory_gb = 12;
    s.l2_cache_kb = 4608;
    s.shared_mem_per_sm_kb = 96;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "rtx3090";
    s.cost_usd = 1499;
    s.tdp_w = 350;
    s.full_name = "NVIDIA GeForce RTX 3090";
    s.architecture = "Ampere";
    s.sm_count = 82;
    s.cuda_cores = 10496;
    s.base_clock_mhz = 1395;
    s.boost_clock_mhz = 1695;
    s.memory_bandwidth_gbs = 936;
    s.memory_gb = 24;
    s.l2_cache_kb = 6144;
    s.shared_mem_per_sm_kb = 128;
    d.push_back(s);

    s = DeviceSpec{};
    s.name = "jetsonxaviernx";
    s.cost_usd = 399;
    s.tdp_w = 15;
    s.full_name = "NVIDIA Jetson Xavier NX";
    s.architecture = "Volta";
    s.sm_count = 6;
    s.cuda_cores = 384;
    s.base_clock_mhz = 854;
    s.boost_clock_mhz = 1100;
    s.memory_bandwidth_gbs = 51;
    s.memory_gb = 8;
    s.l2_cache_kb = 512;
    s.shared_mem_per_sm_kb = 96;
    d.push_back(s);

    return d;
  }();
  return devices;
}

const DeviceSpec* find_device(std::string_view name) {
  for (const auto& d : device_database())
    if (d.name == name) return &d;
  return nullptr;
}

const DeviceSpec& device(const std::string& name) {
  const DeviceSpec* d = find_device(name);
  GP_CHECK_MSG(d != nullptr, "unknown device '" << name << "'");
  return *d;
}

bool has_device(const std::string& name) {
  return find_device(name) != nullptr;
}

const std::vector<std::string>& device_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& d : device_database()) out.push_back(d.name);
    return out;
  }();
  return names;
}

const std::vector<std::string>& training_devices() {
  static const std::vector<std::string> names = {"gtx1080ti", "v100s"};
  return names;
}

const std::vector<std::string>& dse_devices() {
  static const std::vector<std::string> names = {
      "gtx1080ti", "v100s",  "quadrop1000", "teslat4",
      "rtx2080ti", "gtx1060", "titanv"};
  return names;
}

}  // namespace gpuperf::gpu
