// Chaos suite: every fault site in the serving stack is exercised with
// injected timeouts, failures, corruption and slow I/O, and the
// invariants of docs/ROBUSTNESS.md are asserted — the server never
// deadlocks, never leaks a waiter, and always answers with a typed
// machine-readable code (or a degraded prediction).
//
// Runs as its own ctest binary (`ctest -R chaos`) so CI can give it a
// dedicated job; everything is deterministic — faults fire on demand,
// not by chance.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "common/fault.hpp"
#include "core/dataset_builder.hpp"
#include "gpu/device_db.hpp"
#include "ptx/parser.hpp"
#include "ptx/symexec.hpp"
#include "registry/registry.hpp"
#include "serve/session.hpp"

#ifdef GPUPERF_FAULT_INJECTION

namespace fs = std::filesystem;

namespace gpuperf::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - start)
      .count();
}

bool has(const std::string& body, const std::string& needle) {
  return body.find(needle) != std::string::npos;
}

/// A loop the affine accelerator cannot close: the induction step
/// cycles 0,1,...,7 (via rem), so no three consecutive loop-head
/// snapshots ever show a constant delta, and the executor is forced to
/// simulate every iteration — hundreds of millions for p_n = INT32_MAX.
/// Without a deadline this would grind for minutes; with one it must
/// abort fast.
const ptx::PtxKernel& unresolvable_kernel() {
  static const ptx::PtxModule module = ptx::parse_ptx(R"(
.visible .entry chaos_spin(
  .param .u32 p_n
) {
  .reg .pred %p<2>;
  .reg .u32 %r<4>;
  mov.u32 %r1, 0;
  mov.u32 %r2, 0;
  ld.param.u32 %r3, [p_n];
LOOP:
  add.s32 %r2, %r2, 1;
  rem.s32 %r2, %r2, 8;
  add.s32 %r1, %r1, %r2;
  setp.lt.s32 %p1, %r1, %r3;
  @%p1 bra LOOP;
  ret;
}
)");
  return module.kernels.front();
}

ptx::KernelLaunch spin_launch() {
  return ptx::bind_launch(unresolvable_kernel(), 1, 1, {{"p_n", 2147483647}});
}

// ---------------------------------------------------------------------
// Bounded analysis: the tentpole acceptance criterion.

TEST(ChaosDeadline, UnresolvableLoopAbortsWithinTheBudget) {
  const ptx::SymbolicExecutor executor(unresolvable_kernel());
  const auto start = Clock::now();
  EXPECT_THROW(executor.run(spin_launch(), Deadline::after_ms(50)),
               AnalysisTimeout);
  // 50 ms budget, answered in well under 200 ms — not minutes.
  EXPECT_LT(ms_since(start), 200);
}

TEST(ChaosDeadline, StepBudgetAbortsWithoutAClock) {
  const ptx::SymbolicExecutor executor(unresolvable_kernel());
  Deadline deadline;
  deadline.with_step_budget(10'000);
  EXPECT_THROW(executor.run(spin_launch(), deadline), AnalysisTimeout);
}

TEST(ChaosDeadline, SixtyFourConcurrentAnalysesAllAbortNoStuckThreads) {
  const ptx::SymbolicExecutor executor(unresolvable_kernel());
  constexpr int kThreads = 64;
  std::atomic<int> timeouts{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      try {
        executor.run(spin_launch(), Deadline::after_ms(50));
        other.fetch_add(1);  // finishing would mean the loop resolved
      } catch (const AnalysisTimeout&) {
        timeouts.fetch_add(1);
      } catch (...) {
        other.fetch_add(1);
      }
    });
  // Joining every thread IS the no-stuck-threads assertion: a hung
  // analysis would hang the join (and the test's timeout would fire).
  for (auto& t : threads) t.join();
  EXPECT_EQ(timeouts.load(), kThreads);
  EXPECT_EQ(other.load(), 0);
}

// ---------------------------------------------------------------------
// Session-level degradation and typed errors.

ServeOptions chaos_options() {
  ServeOptions options;
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  options.n_threads = 4;
  return options;
}

class ChaosSession : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(ChaosSession, SlowDcaDegradesInsteadOfHanging) {
  ServeSession session(chaos_options());
  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.delay_ms = 5000;
  fault::ScopedFault fault("dca.compute", slow);

  const auto start = Clock::now();
  const std::string body =
      session.handle_line("predict alexnet v100s --deadline-ms 50");
  // The 5 s injected stall was converted into a fast degraded answer.
  EXPECT_LT(ms_since(start), 2000);
  EXPECT_TRUE(has(body, "\"ok\":true")) << body;
  EXPECT_TRUE(has(body, "\"degraded\":true")) << body;
  EXPECT_GE(session.metrics().counter_value("degraded"), 1u);
  EXPECT_GE(session.metrics().counter_value("analysis_timeouts"), 1u);
}

TEST_F(ChaosSession, NoDegradeReturnsTypedTimeoutAndRetriesClean) {
  ServeSession session(chaos_options());
  {
    fault::Spec slow;
    slow.action = fault::Action::kDelay;
    slow.delay_ms = 5000;
    fault::ScopedFault fault("dca.compute", slow);
    const std::string body = session.handle_line(
        "predict alexnet v100s --deadline-ms 50 --no-degrade");
    EXPECT_TRUE(has(body, "\"ok\":false")) << body;
    EXPECT_TRUE(has(body, "\"code\":\"analysis_timeout\"")) << body;
  }
  // The aborted compute was erased from the single-flight cache, so
  // the retry (fault now disarmed) starts fresh and succeeds.
  const std::string retry = session.handle_line("predict alexnet v100s");
  EXPECT_TRUE(has(retry, "\"ok\":true")) << retry;
  EXPECT_TRUE(has(retry, "\"degraded\":false")) << retry;
}

TEST_F(ChaosSession, TimeoutReachesEveryConcurrentWaiter) {
  ServeSession session(chaos_options());
  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.delay_ms = 5000;
  fault::arm("dca.compute", slow);

  constexpr int kThreads = 8;
  std::vector<std::string> bodies(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      bodies[i] = session.handle_line(
          "predict alexnet gtx1080ti --deadline-ms 50 --no-degrade");
    });
  for (auto& t : threads) t.join();
  for (const std::string& body : bodies) {
    EXPECT_TRUE(has(body, "\"ok\":false")) << body;
    EXPECT_TRUE(has(body, "\"code\":\"analysis_timeout\"")) << body;
  }

  fault::disarm_all();
  const std::string retry =
      session.handle_line("predict alexnet gtx1080ti");
  EXPECT_TRUE(has(retry, "\"ok\":true")) << retry;
}

TEST_F(ChaosSession, EveryRequestAnsweredWhenDcaAlwaysFails) {
  ServeSession session(chaos_options());
  fault::arm("dca.compute", fault::Spec{});  // throw, forever

  constexpr int kThreads = 64;
  const char* kModels[] = {"alexnet", "mobilenet", "MobileNetV2",
                           "vgg16"};
  const char* kDevices[] = {"gtx1080ti", "v100s", "teslat4"};
  std::atomic<int> answered{0};
  std::atomic<int> degraded{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      const std::string body = session.handle_line(
          std::string("predict ") + kModels[i % 4] + " " +
          kDevices[i % 3]);
      if (has(body, "\"ok\":")) answered.fetch_add(1);
      if (has(body, "\"degraded\":true")) degraded.fetch_add(1);
    });
  for (auto& t : threads) t.join();
  // 100% DCA failure: the server still answers all 64 requests, every
  // one a degraded (static-features) prediction.
  EXPECT_EQ(answered.load(), kThreads);
  EXPECT_EQ(degraded.load(), kThreads);
  EXPECT_GE(session.metrics().counter_value("analysis_failures"),
            static_cast<std::uint64_t>(1));
}

TEST_F(ChaosSession, RankDegradesAsAWhole) {
  ServeSession session(chaos_options());
  fault::arm("dca.compute", fault::Spec{});
  const std::string body = session.handle_line("rank alexnet");
  EXPECT_TRUE(has(body, "\"ok\":true")) << body;
  EXPECT_TRUE(has(body, "\"degraded\":true")) << body;
  // One acquisition serves all ten devices: one DCA attempt, one
  // failure, one degraded answer, and the breaker (threshold 5) stays
  // closed.
  EXPECT_EQ(fault::hits("dca.compute"), 1u);
  EXPECT_EQ(session.metrics().counter_value("analysis_failures"), 1u);
  EXPECT_EQ(session.metrics().counter_value("breaker_open"), 0u);
  EXPECT_EQ(session.metrics().counter_value("degraded"), 1u);
}

/// The `"ipc":` number text of the first `"device":"<device>"` entry at
/// or after `from` ("" when there is none).
std::string ipc_text(const std::string& body, const std::string& device,
                     std::size_t from = 0) {
  const std::size_t entry = body.find("\"device\":\"" + device + "\"", from);
  if (entry == std::string::npos) return "";
  const std::size_t ipc = body.find("\"ipc\":", entry);
  if (ipc == std::string::npos) return "";
  const std::size_t start = ipc + 6;
  return body.substr(start, body.find_first_of(",}", start) - start);
}

TEST_F(ChaosSession, DegradedAnswersAgreeAcrossVerbsAndHistory) {
  // The fallback is a pure function of the model: predict, rank and dse
  // degrade to the same IPC, in a fresh session and in one that has
  // analyzed another CNN first.
  ServeSession fresh(chaos_options());
  ServeSession seasoned(chaos_options());
  ASSERT_TRUE(has(seasoned.handle_line("predict mobilenet v100s"),
                  "\"degraded\":false"));
  fault::arm("dca.compute", fault::Spec{});

  // With this training set the estimator's answer for m-r154x4 moves
  // with the imputed instruction count, so an imputation that depends
  // on session history shows here.
  const std::string model = "m-r154x4";
  std::string devices;
  for (const gpu::DeviceSpec& device : gpu::device_database())
    devices += (devices.empty() ? "" : ",") + device.name;
  std::vector<std::string> expected;  // by device, from the first session
  for (ServeSession* session : {&fresh, &seasoned}) {
    const std::string rank = session->handle_line("rank " + model);
    ASSERT_TRUE(has(rank, "\"degraded\":true")) << rank;
    const std::string sweep =
        session->handle_line("dse " + model + " --devices=" + devices +
                             " --cells");
    ASSERT_TRUE(has(sweep, "\"degraded_cells\":10")) << sweep;
    const std::size_t cells = sweep.find("\"cells\":");
    ASSERT_NE(cells, std::string::npos) << sweep;
    std::size_t i = 0;
    for (const gpu::DeviceSpec& device : gpu::device_database()) {
      const std::string predict =
          session->handle_line("predict " + model + " " + device.name);
      ASSERT_TRUE(has(predict, "\"degraded\":true")) << predict;
      const std::string ipc = ipc_text(predict, device.name);
      ASSERT_FALSE(ipc.empty()) << predict;
      EXPECT_EQ(ipc_text(rank, device.name), ipc) << device.name;
      EXPECT_EQ(ipc_text(sweep, device.name, cells), ipc) << device.name;
      if (session == &fresh)
        expected.push_back(ipc);
      else
        EXPECT_EQ(ipc, expected[i]) << device.name;
      ++i;
    }
  }
}

TEST_F(ChaosSession, DseFeatureFaultDegradesOneTopology) {
  // One failed feature acquisition: that model's job builds its model
  // for the static fallback, and the other model still answers in full.
  ServeSession session(chaos_options());
  fault::ScopedFault fault("dse.features", {fault::Action::kThrow, 0, 1});
  const std::string body = session.handle_line(
      "dse alexnet,mobilenet --devices=gtx1060,teslat4");
  EXPECT_TRUE(has(body, "\"ok\":true")) << body;
  EXPECT_TRUE(has(body, "\"degraded_cells\":2")) << body;
  EXPECT_TRUE(has(body, "\"failed_cells\":0")) << body;
}

TEST_F(ChaosSession, InFlightBoundShedsDeterministically) {
  ServeOptions options = chaos_options();
  options.max_in_flight = 1;
  ServeSession session(options);

  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.delay_ms = 2000;
  fault::arm("dca.compute", slow);

  std::string slow_body;
  std::thread occupant([&] {
    slow_body =
        session.handle_line("predict alexnet v100s --deadline-ms 150");
  });
  // Wait until the occupant is provably inside its DCA pass.
  while (fault::hits("dca.compute") == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const std::string shed_body =
      session.handle_line("predict mobilenet v100s");
  EXPECT_TRUE(has(shed_body, "\"code\":\"overloaded\"")) << shed_body;
  EXPECT_TRUE(has(shed_body, "\"retry_after_ms\"")) << shed_body;
  occupant.join();
  EXPECT_TRUE(has(slow_body, "\"ok\":true")) << slow_body;
  EXPECT_EQ(session.metrics().counter_value("shed_overloaded"), 1u);

  // Cheap verbs are never shed — the server stays observable.
  fault::disarm_all();
  EXPECT_TRUE(has(session.handle_line("ping"), "\"ok\":true"));
}

// ---------------------------------------------------------------------
// Registry and feature-store faults.

const std::string& one_bundle_registry() {
  static const std::string root = [] {
    const std::string dir = ::testing::TempDir() + "/gpuperf_chaos_reg";
    fs::remove_all(dir);
    registry::ModelRegistry reg(dir);
    core::DatasetOptions data_options;
    data_options.models = {"alexnet", "mobilenet", "MobileNetV2",
                           "vgg16"};
    core::PerformanceEstimator dt("dt", 42);
    dt.train(core::DatasetBuilder(data_options).build());
    reg.publish(dt, registry::Manifest{});
    return dir;
  }();
  return root;
}

TEST_F(ChaosSession, CorruptBundleReloadKeepsTheLiveModelServing) {
  ServeOptions options = chaos_options();
  options.registry_dir = one_bundle_registry();
  ServeSession session(options);
  ASSERT_EQ(session.live_version(), "v0001");

  fault::Spec corrupt;
  corrupt.action = fault::Action::kCorrupt;
  corrupt.remaining = 1;
  fault::arm("registry.load", corrupt);

  // The flipped byte trips the checksum gate; the client sees a typed
  // retryable code and the live model keeps serving.
  const std::string body = session.handle_line("reload");
  EXPECT_TRUE(has(body, "\"ok\":false")) << body;
  EXPECT_TRUE(has(body, "\"code\":\"model_unavailable\"")) << body;
  EXPECT_TRUE(has(body, "checksum")) << body;
  EXPECT_EQ(session.live_version(), "v0001");
  EXPECT_TRUE(
      has(session.handle_line("predict alexnet v100s"), "\"ok\":true"));

  // The corrupt spec was single-shot: the retry loads cleanly.
  EXPECT_TRUE(has(session.handle_line("reload"), "\"ok\":true"));
}

TEST_F(ChaosSession, DeadRegistryReloadIsTypedToo) {
  ServeOptions options = chaos_options();
  options.registry_dir = one_bundle_registry();
  ServeSession session(options);
  fault::ScopedFault fault("registry.latest", fault::Spec{});
  const std::string body = session.handle_line("reload");
  EXPECT_TRUE(has(body, "\"code\":\"model_unavailable\"")) << body;
}

TEST_F(ChaosSession, PollerBacksOffOnARepeatedlyFailingRegistry) {
  ServeOptions options = chaos_options();
  options.registry_dir = one_bundle_registry();
  options.registry_poll_ms = 5;
  ServeSession session(options);

  fault::arm("registry.latest", fault::Spec{});
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  const std::uint64_t polls = fault::hits("registry.latest");
  // Exponential backoff: 5+10+20+40+80+160+320 ms ≈ 7 polls in 700 ms.
  // An unthrottled 5 ms loop would have hammered the site ~140 times.
  EXPECT_GE(polls, 2u);
  EXPECT_LE(polls, 15u);
  EXPECT_GE(session.metrics().counter_value("registry_poll_failures"),
            polls);
}

TEST_F(ChaosSession, FeatureStoreFaultsAreSoft) {
  ServeOptions options = chaos_options();
  options.feature_store_dir =
      ::testing::TempDir() + "/gpuperf_chaos_store";
  fs::remove_all(options.feature_store_dir);
  ServeSession session(options);

  fault::arm("store.get", fault::Spec{});
  fault::arm("store.put", fault::Spec{});
  // A dead store volume degrades persistence, never the prediction:
  // the request succeeds at full (non-degraded) quality.
  const std::string body = session.handle_line("predict alexnet v100s");
  EXPECT_TRUE(has(body, "\"ok\":true")) << body;
  EXPECT_TRUE(has(body, "\"degraded\":false")) << body;
  EXPECT_GE(session.metrics().counter_value("store_read_failures"), 1u);
  EXPECT_GE(session.metrics().counter_value("store_write_failures"), 1u);

  // With the store healthy again the same session persists new work.
  fault::disarm_all();
  session.reset_caches();
  EXPECT_TRUE(
      has(session.handle_line("predict mobilenet v100s"), "\"ok\":true"));
  registry::FeatureStore store(options.feature_store_dir);
  EXPECT_GE(store.size(), 1u);
}

// ---------------------------------------------------------------------
// Per-module circuit breaker.

TEST_F(ChaosSession, BreakerOpensFastFailsAndRecoversViaHalfOpenProbe) {
  ServeOptions options = chaos_options();
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = 800;
  ServeSession session(options);
  fault::arm("dca.compute", fault::Spec{});  // throw, forever

  // Two real DCA failures trip the breaker (degraded answers are not
  // cached, so the same model/device pair re-attempts the analysis).
  for (int i = 0; i < 2; ++i) {
    const std::string body = session.handle_line("predict alexnet v100s");
    EXPECT_TRUE(has(body, "\"degraded\":true")) << body;
  }
  EXPECT_EQ(session.metrics().counter_value("breaker_open"), 1u);

  // Open: the doomed analysis is skipped outright — the fault site
  // records no new hits — but the client still gets a degraded answer.
  const std::uint64_t hits_before = fault::hits("dca.compute");
  const std::string fast = session.handle_line("predict alexnet v100s");
  EXPECT_TRUE(has(fast, "\"degraded\":true")) << fast;
  EXPECT_EQ(fault::hits("dca.compute"), hits_before);
  EXPECT_GE(session.metrics().counter_value("breaker_fast_fail"), 1u);

  // The DCA recovers, the cooldown elapses: exactly one half-open
  // probe runs the real analysis and closes the breaker.
  fault::disarm_all();
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  const std::string probe = session.handle_line("predict alexnet v100s");
  EXPECT_TRUE(has(probe, "\"degraded\":false")) << probe;
  EXPECT_GE(session.metrics().counter_value("breaker_half_open"), 1u);
  EXPECT_EQ(session.metrics().counter_value("breaker_open"), 1u);

  // Closed again: no further fast-fails.
  const std::uint64_t fast_fails =
      session.metrics().counter_value("breaker_fast_fail");
  EXPECT_TRUE(
      has(session.handle_line("predict alexnet v100s"), "\"ok\":true"));
  EXPECT_EQ(session.metrics().counter_value("breaker_fast_fail"),
            fast_fails);
}

TEST_F(ChaosSession, OpenBreakerWithNoDegradeIsATypedError) {
  ServeOptions options = chaos_options();
  options.breaker_threshold = 1;
  options.breaker_cooldown_ms = 60000;  // stays open for the test
  ServeSession session(options);
  fault::arm("dca.compute", fault::Spec{});

  EXPECT_TRUE(has(session.handle_line("predict vgg16 v100s"),
                  "\"degraded\":true"));
  const std::string body =
      session.handle_line("predict vgg16 teslat4 --no-degrade");
  EXPECT_TRUE(has(body, "\"ok\":false")) << body;
  EXPECT_TRUE(has(body, "\"code\":\"analysis_failed\"")) << body;
  EXPECT_TRUE(has(body, "circuit breaker open")) << body;
}

TEST_F(ChaosSession, OpenBreakerFastFailsDse) {
  ServeOptions options = chaos_options();
  options.breaker_threshold = 1;
  options.breaker_cooldown_ms = 60000;  // stays open for the test
  ServeSession session(options);
  fault::arm("dca.compute", fault::Spec{});
  EXPECT_TRUE(has(session.handle_line("predict alexnet v100s"),
                  "\"degraded\":true"));
  ASSERT_EQ(session.metrics().counter_value("breaker_open"), 1u);

  // A sweep acquires through the same breaker: no DCA attempt, one
  // fast-fail for the topology, and both of its cells degrade.
  const std::uint64_t hits = fault::hits("dca.compute");
  const std::uint64_t fast_fails =
      session.metrics().counter_value("breaker_fast_fail");
  const std::string body =
      session.handle_line("dse alexnet --devices=gtx1060,teslat4");
  EXPECT_TRUE(has(body, "\"ok\":true")) << body;
  EXPECT_TRUE(has(body, "\"degraded_cells\":2")) << body;
  EXPECT_EQ(fault::hits("dca.compute"), hits);
  EXPECT_EQ(session.metrics().counter_value("breaker_fast_fail"),
            fast_fails + 1);

  // Without the fallback the cells fail with the breaker's message, and
  // a sweep with no cell left is a typed analysis_failed.
  const std::string strict = session.handle_line(
      "dse alexnet --devices=gtx1060,teslat4 --no-degrade");
  EXPECT_TRUE(has(strict, "\"code\":\"analysis_failed\"")) << strict;
  dse::SweepRequest request;
  request.models = {"alexnet"};
  request.devices = {"gtx1060", "teslat4"};
  request.allow_degrade = false;
  const dse::SweepResult result = session.sweep(request);
  EXPECT_EQ(result.failed_cells, 2u);
  for (const dse::SweepCell& cell : result.cells)
    EXPECT_TRUE(has(cell.error, "circuit breaker open for 'alexnet'"))
        << cell.error;
  EXPECT_EQ(fault::hits("dca.compute"), hits);
}

TEST_F(ChaosSession, BreakerIsPerModuleNotGlobal) {
  ServeOptions options = chaos_options();
  options.breaker_threshold = 1;
  options.breaker_cooldown_ms = 60000;
  ServeSession session(options);
  {
    fault::ScopedFault fault("dca.compute", fault::Spec{});
    EXPECT_TRUE(has(session.handle_line("predict alexnet v100s"),
                    "\"degraded\":true"));
  }
  // alexnet's breaker is open; mobilenet's is untouched and serves a
  // full-quality prediction.
  const std::string other = session.handle_line("predict mobilenet v100s");
  EXPECT_TRUE(has(other, "\"ok\":true")) << other;
  EXPECT_TRUE(has(other, "\"degraded\":false")) << other;
  const std::string opened = session.handle_line("predict alexnet v100s");
  EXPECT_TRUE(has(opened, "\"degraded\":true")) << opened;
  EXPECT_GE(session.metrics().counter_value("breaker_fast_fail"), 1u);
}

// ---------------------------------------------------------------------
// health / ready probes.

TEST_F(ChaosSession, HealthAndReadyVerbsAnswer) {
  ServeSession session(chaos_options());
  const std::string health = session.handle_line("health");
  EXPECT_TRUE(has(health, "\"status\":\"ok\"")) << health;
  EXPECT_TRUE(has(health, "\"uptime_ms\":")) << health;
  const std::string ready = session.handle_line("ready");
  EXPECT_TRUE(has(ready, "\"ready\":true")) << ready;
  EXPECT_TRUE(has(ready, "\"reasons\":[]")) << ready;
}

TEST_F(ChaosSession, ReadyReflectsTheInstalledProbe) {
  ServeSession session(chaos_options());
  bool draining = false;
  ServeSession::ReadyProbe probe;
  probe.draining = [&draining] { return draining; };
  probe.loop_healthy = [] { return true; };
  session.set_ready_probe(probe);
  EXPECT_TRUE(has(session.handle_line("ready"), "\"ready\":true"));
  draining = true;
  const std::string body = session.handle_line("ready");
  EXPECT_TRUE(has(body, "\"ready\":false")) << body;
  EXPECT_TRUE(has(body, "draining")) << body;
  session.set_ready_probe({});
  EXPECT_TRUE(has(session.handle_line("ready"), "\"ready\":true"));
}

TEST_F(ChaosSession, StatsReportTheChaos) {
  ServeSession session(chaos_options());
  {
    fault::Spec slow;
    slow.action = fault::Action::kDelay;
    slow.delay_ms = 5000;
    fault::ScopedFault fault("dca.compute", slow);
    session.handle_line("predict alexnet v100s --deadline-ms 50");
  }
  const std::string stats = session.handle_line("stats");
  EXPECT_TRUE(has(stats, "\"counters\"")) << stats;
  EXPECT_TRUE(has(stats, "\"degraded\":1")) << stats;
  EXPECT_TRUE(has(stats, "\"limits\"")) << stats;
}

}  // namespace
}  // namespace gpuperf::serve

#endif  // GPUPERF_FAULT_INJECTION
