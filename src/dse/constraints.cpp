#include "dse/constraints.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace gpuperf::dse {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The simulator's activity-based power split (gpu/simulator.cpp): idle
// floor 0.30, compute share 0.45, memory share 0.25 of TDP.  Keep these
// in sync — docs/DSE.md documents them as one model.
constexpr double kIdleShare = 0.30;
constexpr double kComputeShare = 0.45;
constexpr double kMemoryShare = 0.25;

/// Cost objective for dominance comparisons: unknown compares as
/// +infinity, so a device with real cost data always dominates an
/// otherwise-equal device without it.
double cost_or_inf(const DeviceSummary& s) {
  return s.has_cost ? s.cost_usd : kInf;
}

/// a is at least as good as b on every objective and strictly better on
/// one (minimization; weak Pareto dominance).
bool dominates(const DeviceSummary& a, const DeviceSummary& b) {
  if (a.total_latency_ms > b.total_latency_ms) return false;
  if (a.peak_power_w > b.peak_power_w) return false;
  if (cost_or_inf(a) > cost_or_inf(b)) return false;
  return a.total_latency_ms < b.total_latency_ms ||
         a.peak_power_w < b.peak_power_w ||
         cost_or_inf(a) < cost_or_inf(b);
}

}  // namespace

const char* cell_status_name(CellStatus status) {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kDegraded:
      return "degraded";
    case CellStatus::kFailed:
      return "failed";
  }
  return "failed";
}

double estimate_latency_ms(std::int64_t executed_instructions, double ipc,
                           const gpu::DeviceSpec& device) {
  GP_CHECK(device.sm_count > 0 && device.boost_clock_mhz > 0.0);
  if (ipc <= 0.0) return kInf;
  const double warp_instructions =
      static_cast<double>(executed_instructions) / 32.0;
  const double cycles = warp_instructions / (ipc * device.sm_count);
  // cycles / (MHz * 1e6) seconds = cycles / (MHz * 1e3) milliseconds.
  return cycles / (device.boost_clock_mhz * 1e3);
}

double estimate_power_w(double ipc, const gpu::DeviceSpec& device) {
  if (!device.has_tdp_w()) return 0.0;
  // IPC saturates at one instruction per warp scheduler per cycle:
  // cores_per_sm()/32 warp-wide issue slots.  The compute activity is
  // how full those slots are; the rest of the time the SM is waiting on
  // the memory system (the roofline reading of an IPC shortfall).
  const double peak_ipc =
      static_cast<double>(device.cores_per_sm()) / 32.0;
  const double a =
      peak_ipc > 0.0 ? std::clamp(ipc / peak_ipc, 0.0, 1.0) : 0.0;
  return device.tdp_w *
         (kIdleShare + kComputeShare * a + kMemoryShare * (1.0 - a));
}

void check_constraints(const Constraints& constraints) {
  const std::pair<const char*, double> fields[] = {
      {"max_latency_ms", constraints.max_latency_ms},
      {"max_power_w", constraints.max_power_w},
      {"max_cost_usd", constraints.max_cost_usd},
      {"w_latency", constraints.w_latency},
      {"w_power", constraints.w_power},
      {"w_cost", constraints.w_cost},
  };
  for (const auto& [name, value] : fields)
    GP_CHECK_MSG(std::isfinite(value) && value >= 0.0,
                 "constraint " << name
                               << " must be finite and non-negative, got "
                               << value);
}

std::vector<DeviceSummary> summarize_cells(
    const std::vector<SweepCell>& cells,
    const std::vector<std::string>& device_order,
    const std::vector<DeviceCost>& costs, const Constraints& constraints) {
  GP_CHECK_MSG(costs.empty() || costs.size() == device_order.size(),
               "device cost list must parallel the device order");
  const std::size_t n = device_order.size();
  std::vector<DeviceSummary> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j)
      GP_CHECK_MSG(device_order[j] != device_order[i],
                   "device '" << device_order[i]
                              << "' is listed twice in the device order");
    DeviceSummary& s = out[i];
    s.device = device_order[i];
    if (!costs.empty() && costs[i].cost_usd >= 0.0) {
      s.cost_usd = costs[i].cost_usd;
      s.has_cost = true;
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const SweepCell& cell = cells[c];
    // Probe from position c mod n: a model-major cell matches at once.
    std::size_t probe = 0;
    while (probe < n && device_order[(c + probe) % n] != cell.device) ++probe;
    GP_CHECK_MSG(probe < n, "cell device '" << cell.device
                                            << "' missing from device order");
    DeviceSummary& s = out[(c + probe) % n];
    if (cell.status == CellStatus::kFailed) {
      ++s.cells_failed;
      continue;
    }
    if (cell.status == CellStatus::kDegraded) ++s.cells_degraded;
    else ++s.cells_ok;
    s.total_latency_ms += cell.latency_ms;
    s.worst_latency_ms = std::max(s.worst_latency_ms, cell.latency_ms);
    s.peak_power_w = std::max(s.peak_power_w, cell.power_w);
  }

  for (DeviceSummary& s : out) {
    // Constraint verdict: first violation wins the reason string.
    // Incomplete devices never pass — a sweep that lost cells must not
    // win on the ones it happened to finish.
    if (s.cells_failed > 0) {
      s.feasible = false;
      s.infeasible_reason = "incomplete (failed cells)";
    } else if (constraints.max_latency_ms > 0.0 &&
               s.worst_latency_ms > constraints.max_latency_ms) {
      s.feasible = false;
      s.infeasible_reason = "latency above max_latency_ms";
    } else if (constraints.max_power_w > 0.0 &&
               s.peak_power_w > constraints.max_power_w) {
      s.feasible = false;
      s.infeasible_reason = "power above max_power_w";
    } else if (constraints.max_cost_usd > 0.0 && !s.has_cost) {
      s.feasible = false;
      s.infeasible_reason = "cost unknown under max_cost_usd";
    } else if (constraints.max_cost_usd > 0.0 &&
               s.cost_usd > constraints.max_cost_usd) {
      s.feasible = false;
      s.infeasible_reason = "cost above max_cost_usd";
    } else if (constraints.w_cost > 0.0 && !s.has_cost) {
      // A cost-weighted ranking can't place a device of unknown price.
      s.feasible = false;
      s.infeasible_reason = "cost unknown under w_cost";
    }
  }
  return out;
}

void mark_pareto(std::vector<DeviceSummary>& summaries) {
  for (DeviceSummary& candidate : summaries) {
    candidate.pareto = false;
    if (!candidate.feasible) continue;
    candidate.pareto = std::none_of(
        summaries.begin(), summaries.end(),
        [&](const DeviceSummary& other) {
          return other.feasible && &other != &candidate &&
                 dominates(other, candidate);
        });
  }
}

void rank_summaries(std::vector<DeviceSummary>& summaries,
                    const Constraints& constraints) {
  // Per-objective minima over the feasible set normalize the score so
  // the weights are unit-free ("2x the best latency" beats "700 ms").
  double min_latency = kInf, min_power = kInf, min_cost = kInf;
  for (const DeviceSummary& s : summaries) {
    if (!s.feasible) continue;
    min_latency = std::min(min_latency, s.total_latency_ms);
    min_power = std::min(min_power, s.peak_power_w);
    if (s.has_cost) min_cost = std::min(min_cost, s.cost_usd);
  }
  const auto ratio = [](double value, double best) {
    return best > 0.0 && std::isfinite(best) ? value / best : 1.0;
  };
  for (DeviceSummary& s : summaries) {
    if (!s.feasible) {
      s.score = kInf;
      continue;
    }
    s.score =
        constraints.w_latency * ratio(s.total_latency_ms, min_latency) +
        constraints.w_power * ratio(s.peak_power_w, min_power) +
        (s.has_cost ? constraints.w_cost * ratio(s.cost_usd, min_cost)
                    : 0.0);
  }
  std::sort(summaries.begin(), summaries.end(),
            [](const DeviceSummary& a, const DeviceSummary& b) {
              if (a.feasible != b.feasible) return a.feasible;
              if (a.feasible && a.score != b.score)
                return a.score < b.score;
              return a.device < b.device;
            });
}

}  // namespace gpuperf::dse
