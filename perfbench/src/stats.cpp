#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

double nearest_rank_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return nearest_rank_sorted(samples, q);
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples.size(), nearest_rank_sorted(samples, 0.50),
          nearest_rank_sorted(samples, 0.99)};
}

}  // namespace perfbench
