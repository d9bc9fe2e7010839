// Reproduces Table IV: execution time of the naive approach (profile
// every GPU with nvprof) versus ours (one dynamic code analysis plus n
// model inferences) for seven CNNs across n = 1..7 GPUs.
#include <cstdio>

#include "cnn/zoo.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dse/sweep.hpp"
#include "experiment_common.hpp"
#include "gpu/device_db.hpp"

int main() {
  using namespace gpuperf;

  const ml::Dataset data = bench::build_paper_dataset();
  core::PerformanceEstimator estimator("dt", bench::kModelSeed);
  estimator.train(data);

  constexpr int kMaxDevices = 7;

  TextTable table(
      "Table IV: Execution time (s), naive profiling vs proposed approach");
  // t_pm is a serving prediction, well under a microsecond: printed in
  // microseconds, where the other columns are in seconds.
  std::vector<std::string> header = {"CNN", "t_p", "t_dca", "t_pm (us)"};
  for (int n = 1; n <= kMaxDevices; ++n) {
    header.push_back("naive n=" + std::to_string(n));
    header.push_back("ours n=" + std::to_string(n));
  }
  table.set_header(header);

  double total_speedup_n1 = 0.0;
  double total_speedup_n7 = 0.0;
  int rows = 0;

  // The whole Table IV model set in one call to the DSE subsystem.
  const std::vector<core::DseTiming> timings = dse::time_models(
      estimator, cnn::zoo::table4_models(), gpu::dse_devices());

  for (const core::DseTiming& timing : timings) {
    std::vector<std::string> row = {timing.model, fixed(timing.t_p, 1),
                                    fixed(timing.t_dca, 4),
                                    fixed(timing.t_pm * 1e6, 3)};
    for (int n = 1; n <= kMaxDevices; ++n) {
      row.push_back(fixed(timing.t_measur(n), 1));
      row.push_back(fixed(timing.t_est(n), 4));
    }
    table.add_row(row);
    total_speedup_n1 += timing.speedup(1);
    total_speedup_n7 += timing.speedup(kMaxDevices);
    ++rows;
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\naverage speedup: %.0fx at n=1, %.0fx at n=7 (paper: 33x average "
      "for a single GPU, growing with n)\n",
      total_speedup_n1 / rows, total_speedup_n7 / rows);
  return 0;
}
