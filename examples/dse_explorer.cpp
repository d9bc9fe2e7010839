// Design-space exploration: rank candidate GPGPUs for a CNN by
// predicted throughput, and show the time saved versus profiling every
// device (the paper's Section V application).
//
//   ./dse_explorer [model]
#include <cstdio>

#include "cnn/zoo.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/dataset_builder.hpp"
#include "core/dse.hpp"
#include "gpu/device_db.hpp"

int main(int argc, char** argv) {
  using namespace gpuperf;

  const std::string model_name = argc > 1 ? argv[1] : "efficientnetb4";
  if (!cnn::zoo::has_model(model_name)) {
    std::fprintf(stderr, "unknown model '%s'\n", model_name.c_str());
    return 1;
  }

  std::printf("training estimator...\n");
  core::DatasetBuilder builder;
  core::PerformanceEstimator estimator("dt");
  estimator.train(builder.build());
  core::DseExplorer dse(estimator);

  // Rank every device in the database, not just the training pair —
  // cross-platform prediction in action.  One DCA pass serves them all.
  const std::vector<std::string>& devices = gpu::device_names();
  const auto ranking = dse.rank_devices(
      estimator.extractor().compute(cnn::zoo::build(model_name)), devices);

  TextTable table("Device ranking for " + model_name +
                  " (best predicted throughput first)");
  table.set_header({"rank", "device", "architecture", "predicted IPC",
                    "throughput proxy"});
  int rank = 1;
  for (const auto& r : ranking) {
    const gpu::DeviceSpec& spec = gpu::device(r.device);
    table.add_row({std::to_string(rank++), spec.full_name,
                   spec.architecture, fixed(r.predicted_ipc, 4),
                   fixed(r.predicted_throughput / 1e6, 2)});
  }
  std::printf("%s\n", table.render().c_str());

  const core::DseTiming timing = dse.time_model(model_name, devices);
  std::printf("cost to explore all %zu devices:\n", devices.size());
  std::printf("  naive profiling:  %.0f s\n",
              timing.t_measur(static_cast<int>(devices.size())));
  std::printf("  this estimator:   %.3f s  (%.0fx faster)\n",
              timing.t_est(static_cast<int>(devices.size())),
              timing.speedup(static_cast<int>(devices.size())));
  return 0;
}
