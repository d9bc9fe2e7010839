// Exact order statistics over raw per-op samples.  The benchmark never
// reads serve::LatencyHistogram: its ±15% buckets cannot show a 10%
// regression, while a sorted copy of the samples gives the true value.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` for q in [0, 1]: the smallest
/// sample with at least q·n samples at or below it.  Exact — no
/// buckets, no interpolation.  0 for an empty vector.
double percentile(std::vector<double> samples, double q);

/// p50 and p99 of one sample set, with the count they rest on.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};
Summary summarize(std::vector<double> samples);

}  // namespace perfbench
