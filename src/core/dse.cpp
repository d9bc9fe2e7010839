#include "core/dse.hpp"

#include <algorithm>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "gpu/device_db.hpp"
#include "gpu/profiler.hpp"
#include "ptx/counter.hpp"

namespace gpuperf::core {

DseExplorer::DseExplorer(const PerformanceEstimator& estimator)
    : estimator_(estimator) {
  GP_CHECK_MSG(estimator_.is_trained(), "DSE needs a trained estimator");
}

std::vector<DeviceRanking> DseExplorer::rank_devices(
    const ModelFeatures& features,
    const std::vector<std::string>& device_names) const {
  GP_CHECK(!device_names.empty());
  std::vector<DeviceRanking> out;
  out.reserve(device_names.size());
  for (const std::string& name : device_names) {
    const gpu::DeviceSpec& device = gpu::device(name);
    DeviceRanking r;
    r.device = name;
    r.predicted_ipc = estimator_.predict(features, device);
    r.predicted_throughput = r.predicted_ipc * device.sm_count *
                             device.boost_clock_mhz;
    out.push_back(std::move(r));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DeviceRanking& a, const DeviceRanking& b) {
                     return a.predicted_throughput > b.predicted_throughput;
                   });
  return out;
}

DseTiming DseExplorer::time_model(
    const std::string& zoo_model,
    const std::vector<std::string>& device_names) const {
  GP_CHECK(!device_names.empty());
  DseTiming timing;
  timing.model = zoo_model;

  // Run one prediction to populate the measured DCA / inference times.
  // Training counted every zoo launch into the process-wide memo, so
  // empty it: t_dca is the cost for a CNN the estimator has not seen.
  const cnn::Model model = cnn::zoo::build(zoo_model);
  ptx::InstructionCounter::reset_memo();
  const ModelFeatures features = estimator_.extractor().compute(model);
  timing.t_dca = features.dca_seconds;

  // t_pm is one serving prediction: the devices are resolved before
  // the clock starts, and each repetition is the predict(features,
  // device) every verb calls.
  std::vector<const gpu::DeviceSpec*> devices;
  devices.reserve(device_names.size());
  for (const std::string& name : device_names)
    devices.push_back(&gpu::device(name));
  Stopwatch watch;
  double sink = 0.0;
  constexpr int kReps = 100;  // predictions are microseconds; average
  for (int i = 0; i < kReps; ++i)
    sink += estimator_.predict(features, *devices[i % devices.size()]);
  timing.t_pm = watch.elapsed_seconds() / kReps;
  GP_CHECK(sink == sink);  // keep the loop alive

  // Modeled nvprof cost, averaged over the sweep devices.
  const gpu::Profiler profiler(0.0);
  double total = 0.0;
  for (const gpu::DeviceSpec* device : devices)
    total += profiler.profile(model, *device).profiling_wall_seconds;
  timing.t_p = total / static_cast<double>(device_names.size());
  return timing;
}

}  // namespace gpuperf::core
