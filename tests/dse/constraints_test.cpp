#include "dse/constraints.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "gpu/device_spec.hpp"

namespace gpuperf::dse {
namespace {

SweepCell cell(std::string_view model, std::string_view device,
               double latency_ms, double power_w,
               CellStatus status = CellStatus::kOk) {
  SweepCell c;
  c.model = model;
  c.device = device;
  c.status = status;
  c.predicted_ipc = 1.0;
  c.latency_ms = latency_ms;
  c.power_w = power_w;
  return c;
}

/// The hand-built four-device fixture: one model, per-device
/// (latency, power, cost) triples chosen so that
///   a (10, 100, $500)  — frontier
///   b (20,  50, $400)  — frontier (best power and cost)
///   c (15, 120, $600)  — dominated by a on all three objectives
///   d (10, 100, $500)  — exact tie with a
std::vector<DeviceSummary> fixture_summaries(const Constraints& k = {}) {
  const std::vector<SweepCell> cells = {
      cell("m", "a", 10.0, 100.0), cell("m", "b", 20.0, 50.0),
      cell("m", "c", 15.0, 120.0), cell("m", "d", 10.0, 100.0)};
  const std::vector<std::string> order = {"a", "b", "c", "d"};
  const std::vector<DeviceCost> costs = {{500.0}, {400.0}, {600.0}, {500.0}};
  return summarize_cells(cells, order, costs, k);
}

const DeviceSummary& by_name(const std::vector<DeviceSummary>& summaries,
                             const std::string& device) {
  for (const DeviceSummary& s : summaries)
    if (s.device == device) return s;
  ADD_FAILURE() << "no summary for " << device;
  static DeviceSummary missing;
  return missing;
}

TEST(Constraints, ParetoExcludesDominatedKeepsTies) {
  std::vector<DeviceSummary> summaries = fixture_summaries();
  mark_pareto(summaries);
  EXPECT_TRUE(by_name(summaries, "a").pareto);
  EXPECT_TRUE(by_name(summaries, "b").pareto);
  // c loses to a on latency, power AND cost — strictly dominated.
  EXPECT_FALSE(by_name(summaries, "c").pareto);
  // d ties a on every objective: neither dominates, both stay.
  EXPECT_TRUE(by_name(summaries, "d").pareto);
}

TEST(Constraints, ParetoIgnoresInfeasibleDevices) {
  Constraints k;
  k.max_power_w = 110.0;  // knocks out c (120 W)
  std::vector<DeviceSummary> summaries = fixture_summaries(k);
  mark_pareto(summaries);
  EXPECT_FALSE(by_name(summaries, "c").feasible);
  EXPECT_FALSE(by_name(summaries, "c").pareto);
  // An infeasible device must not dominate anyone either: make the
  // *best* device infeasible and the previously dominated one joins.
  Constraints tight;
  tight.max_latency_ms = 12.0;  // knocks out b (20 ms) and keeps a, c, d
  std::vector<DeviceSummary> s2 = fixture_summaries(tight);
  EXPECT_FALSE(by_name(s2, "b").feasible);
  mark_pareto(s2);
  EXPECT_TRUE(by_name(s2, "a").pareto);
  EXPECT_FALSE(by_name(s2, "c").pareto);  // a still dominates c
}

TEST(Constraints, UnknownCostComparesAsInfinityInDominance) {
  // Two devices identical on latency and power; the one with a real
  // price dominates the one without.
  const std::vector<SweepCell> cells = {cell("m", "known", 10.0, 100.0),
                                        cell("m", "mystery", 10.0, 100.0)};
  std::vector<DeviceSummary> summaries = summarize_cells(
      cells, {"known", "mystery"}, {{500.0}, {-1.0}}, Constraints{});
  mark_pareto(summaries);
  EXPECT_TRUE(by_name(summaries, "known").pareto);
  EXPECT_FALSE(by_name(summaries, "mystery").pareto);
}

TEST(Constraints, MaxLatencyBoundsWorstModelNotTotal) {
  // Two models at 5 ms and 10 ms: total 15 ms, worst 10 ms.  A 12 ms
  // per-inference SLA passes even though the batch total exceeds it.
  const std::vector<SweepCell> cells = {cell("m1", "a", 5.0, 80.0),
                                        cell("m2", "a", 10.0, 90.0)};
  Constraints k;
  k.max_latency_ms = 12.0;
  const auto summaries = summarize_cells(cells, {"a"}, {}, k);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_DOUBLE_EQ(summaries[0].total_latency_ms, 15.0);
  EXPECT_DOUBLE_EQ(summaries[0].worst_latency_ms, 10.0);
  EXPECT_DOUBLE_EQ(summaries[0].peak_power_w, 90.0);
  EXPECT_TRUE(summaries[0].feasible);

  k.max_latency_ms = 8.0;
  const auto tight = summarize_cells(cells, {"a"}, {}, k);
  EXPECT_FALSE(tight[0].feasible);
  EXPECT_EQ(tight[0].infeasible_reason, "latency above max_latency_ms");
}

TEST(Constraints, FailedCellsMakeDeviceInfeasible) {
  const std::vector<SweepCell> cells = {
      cell("m1", "a", 5.0, 80.0),
      cell("m2", "a", 0.0, 0.0, CellStatus::kFailed)};
  const auto summaries = summarize_cells(cells, {"a"}, {}, Constraints{});
  EXPECT_FALSE(summaries[0].feasible);
  EXPECT_EQ(summaries[0].infeasible_reason, "incomplete (failed cells)");
  EXPECT_EQ(summaries[0].cells_ok, 1);
  EXPECT_EQ(summaries[0].cells_failed, 1);
  // A degraded cell still counts as an answer, not a hole.
  const std::vector<SweepCell> degraded = {
      cell("m1", "a", 5.0, 80.0),
      cell("m2", "a", 7.0, 85.0, CellStatus::kDegraded)};
  const auto ok = summarize_cells(degraded, {"a"}, {}, Constraints{});
  EXPECT_TRUE(ok[0].feasible);
  EXPECT_EQ(ok[0].cells_degraded, 1);
  EXPECT_DOUBLE_EQ(ok[0].total_latency_ms, 12.0);
}

TEST(Constraints, UnknownCostInfeasibleUnderCostBoundOrWeight) {
  const std::vector<SweepCell> cells = {cell("m", "a", 10.0, 100.0)};
  Constraints bound;
  bound.max_cost_usd = 1000.0;
  auto s = summarize_cells(cells, {"a"}, {}, bound);
  EXPECT_FALSE(s[0].feasible);
  EXPECT_EQ(s[0].infeasible_reason, "cost unknown under max_cost_usd");

  Constraints weighted;
  weighted.w_cost = 0.5;
  s = summarize_cells(cells, {"a"}, {}, weighted);
  EXPECT_FALSE(s[0].feasible);
  EXPECT_EQ(s[0].infeasible_reason, "cost unknown under w_cost");

  Constraints over;
  over.max_cost_usd = 450.0;
  s = summarize_cells(cells, {"a"}, {{500.0}}, over);
  EXPECT_FALSE(s[0].feasible);
  EXPECT_EQ(s[0].infeasible_reason, "cost above max_cost_usd");
}

TEST(Constraints, RankingIsFeasibleFirstScoreThenName) {
  Constraints k;
  k.max_power_w = 110.0;  // c infeasible
  std::vector<DeviceSummary> summaries = fixture_summaries(k);
  rank_summaries(summaries, k);
  // Latency-only weights: a and d tie at the 10 ms minimum (score 1.0),
  // b scores 2.0; the a/d tie breaks on name; infeasible c trails.
  ASSERT_EQ(summaries.size(), 4u);
  EXPECT_EQ(summaries[0].device, "a");
  EXPECT_EQ(summaries[1].device, "d");
  EXPECT_EQ(summaries[2].device, "b");
  EXPECT_EQ(summaries[3].device, "c");
  EXPECT_DOUBLE_EQ(summaries[0].score, 1.0);
  EXPECT_DOUBLE_EQ(summaries[1].score, 1.0);
  EXPECT_DOUBLE_EQ(summaries[2].score, 2.0);
  EXPECT_TRUE(std::isinf(summaries[3].score));
}

TEST(Constraints, WeightsShiftTheWinner) {
  // Pure latency picks a; power-dominated weights pick b (50 W vs 100).
  Constraints power_first;
  power_first.w_latency = 0.0;
  power_first.w_power = 1.0;
  std::vector<DeviceSummary> summaries = fixture_summaries(power_first);
  rank_summaries(summaries, power_first);
  EXPECT_EQ(summaries[0].device, "b");
}

TEST(Constraints, CostListMustParallelDeviceOrder) {
  const std::vector<SweepCell> cells = {cell("m", "a", 1.0, 1.0)};
  EXPECT_THROW(
      summarize_cells(cells, {"a"}, {{1.0}, {2.0}}, Constraints{}),
      CheckError);
}

TEST(Constraints, LatencyProxyAlgebra) {
  gpu::DeviceSpec spec;
  spec.sm_count = 10;
  spec.cuda_cores = 640;
  spec.boost_clock_mhz = 1000.0;
  // 32e6 thread-instructions = 1e6 warp-instructions; at IPC 1 over 10
  // SMs that is 1e5 cycles = 0.1 ms at 1 GHz.
  EXPECT_DOUBLE_EQ(estimate_latency_ms(32'000'000, 1.0, spec), 0.1);
  EXPECT_DOUBLE_EQ(estimate_latency_ms(32'000'000, 2.0, spec), 0.05);
  EXPECT_TRUE(std::isinf(estimate_latency_ms(32'000'000, 0.0, spec)));
}

TEST(Constraints, PowerModelMatchesSimulatorShares) {
  gpu::DeviceSpec spec;
  spec.sm_count = 10;
  spec.cuda_cores = 640;  // 64 cores/SM → peak warp IPC 2.0
  spec.tdp_w = 200.0;
  // Saturated: idle 0.30 + compute 0.45 shares of TDP.
  EXPECT_DOUBLE_EQ(estimate_power_w(2.0, spec), 200.0 * 0.75);
  // Fully memory-bound: idle 0.30 + memory 0.25.
  EXPECT_DOUBLE_EQ(estimate_power_w(0.0, spec), 200.0 * 0.55);
  // Midpoint activity, and over-peak IPC clamps to saturation.
  EXPECT_DOUBLE_EQ(estimate_power_w(1.0, spec), 200.0 * 0.65);
  EXPECT_DOUBLE_EQ(estimate_power_w(5.0, spec), 200.0 * 0.75);
  spec.tdp_w = 0.0;  // unknown TDP → no power figure, not a guess
  EXPECT_DOUBLE_EQ(estimate_power_w(2.0, spec), 0.0);
}

TEST(Constraints, CellStatusNames) {
  EXPECT_STREQ(cell_status_name(CellStatus::kOk), "ok");
  EXPECT_STREQ(cell_status_name(CellStatus::kDegraded), "degraded");
  EXPECT_STREQ(cell_status_name(CellStatus::kFailed), "failed");
}

}  // namespace
}  // namespace gpuperf::dse
