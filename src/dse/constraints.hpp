// Constraint engine of the fleet-scale DSE subsystem (docs/DSE.md):
// turns raw sweep cells — one (model, device) prediction each — into
// per-device summaries, filters them against user constraints on
// latency / power / cost, marks the Pareto frontier over the three
// objectives, and produces a deterministic scalarized ranking.
//
// The power figure reuses the activity-based board-power model of
// gpu/simulator.cpp (the authors' companion power-estimation work):
// predicted IPC stands in for compute activity, its complement for
// memory activity — the roofline view that a warp slot not issuing
// compute is waiting on memory.
//
// Summaries are kept by device position, never by name lookup: a cell
// finds its device by scanning the device order from its own position,
// so model-major cells match on the first probe, and the verdicts'
// reasons are static text.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/device_spec.hpp"

namespace gpuperf::dse {

/// User constraints and ranking weights for one sweep.  A zero bound
/// means "unconstrained"; weights scalarize the surviving devices
/// (score = sum of weight * objective / best feasible objective, lower
/// is better).  Every bound and weight must be finite and non-negative
/// (check_constraints).
struct Constraints {
  /// Bound on the *worst single-model* latency on a device (a per-
  /// inference SLA), milliseconds.
  double max_latency_ms = 0.0;
  /// Bound on the peak predicted board power across the sweep's models.
  double max_power_w = 0.0;
  /// Bound on the device's board price.  A device without cost data is
  /// infeasible under a cost bound (unknown is not free).
  double max_cost_usd = 0.0;

  double w_latency = 1.0;
  double w_power = 0.0;
  double w_cost = 0.0;
};

enum class CellStatus {
  kOk,        ///< full DCA-backed prediction
  kDegraded,  ///< static-features fallback — DCA timed out or failed
  kFailed,    ///< no prediction at all; `error` says why
};

/// GP_CHECK-fails, naming the field, unless every bound and weight of
/// `constraints` is finite and non-negative: a NaN weight would make
/// every score NaN and the ranking's sort order undefined, and a
/// negative bound would silently read as "unconstrained".
void check_constraints(const Constraints& constraints);

const char* cell_status_name(CellStatus status);

/// One evaluated (model, device) pair of the cross product.  `model` and
/// `device` view static names, never a request's strings: the sweep
/// engine points them at the zoo entry and the device-table entry it
/// resolved, which live as long as the process.  A hand-built cell must
/// point them at storage that outlives it.
struct SweepCell {
  std::string_view model;
  std::string_view device;
  CellStatus status = CellStatus::kFailed;
  double predicted_ipc = 0.0;
  double latency_ms = 0.0;
  double power_w = 0.0;
  std::string error;  // kFailed only
};

/// Per-device aggregate over every model of the sweep, plus the
/// constraint verdict and ranking outputs.
struct DeviceSummary {
  std::string device;
  int cells_ok = 0;
  int cells_degraded = 0;
  int cells_failed = 0;

  /// Sum of per-model latencies (ok + degraded cells) — the ranking's
  /// latency objective (batch cost of running the whole model set).
  double total_latency_ms = 0.0;
  /// Worst single-model latency — what max_latency_ms bounds.
  double worst_latency_ms = 0.0;
  /// Peak predicted board power across the models.
  double peak_power_w = 0.0;
  double cost_usd = 0.0;
  bool has_cost = false;

  bool feasible = true;
  std::string_view infeasible_reason;  // first violated constraint (static)
  /// Scalarized ranking score (lower is better); infinity when
  /// infeasible.
  double score = 0.0;
  /// On the Pareto frontier of (total latency, peak power, cost) among
  /// feasible devices.
  bool pareto = false;
};

/// Latency proxy for one model on one device, milliseconds: warp
/// instructions / (IPC * SMs) cycles at the boost clock.
double estimate_latency_ms(std::int64_t executed_instructions, double ipc,
                           const gpu::DeviceSpec& device);

/// Activity-based board power (the simulator's formula with IPC-derived
/// activities): idle floor + compute + memory shares of TDP.
double estimate_power_w(double ipc, const gpu::DeviceSpec& device);

/// Per-device cost lookup for summarize_cells: parallel to
/// `device_order`; a negative value means "unknown".
struct DeviceCost {
  double cost_usd = -1.0;
};

/// Summarize cells per device (in `device_order`, which must not repeat
/// a name, with `costs` parallel to it — pass an empty vector for
/// all-unknown) and apply the constraint filter.  Cell c's device is
/// looked for at position c % n first, so model-major cells cost one
/// comparison each.  Failed cells make a device infeasible — an
/// incomplete sweep must not win on the cells it happened to finish.
std::vector<DeviceSummary> summarize_cells(
    const std::vector<SweepCell>& cells,
    const std::vector<std::string>& device_order,
    const std::vector<DeviceCost>& costs, const Constraints& constraints);

/// Mark the Pareto frontier among feasible summaries: a device is on
/// the frontier unless some other feasible device is at least as good
/// on every objective and strictly better on one (ties are kept — two
/// identical devices are both frontier members).  Unknown cost compares
/// as +infinity.
void mark_pareto(std::vector<DeviceSummary>& summaries);

/// Fill in scalarized scores and sort: feasible devices first by
/// ascending score, name as the deterministic tiebreak; infeasible
/// devices trail in name order.
void rank_summaries(std::vector<DeviceSummary>& summaries,
                    const Constraints& constraints);

}  // namespace gpuperf::dse
