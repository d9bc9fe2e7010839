// Sandbox chaos suite (docs/ROBUSTNESS.md "Crash isolation"): the
// worker-side fault sites — dca.crash (abort), dca.hang (wedge until
// the hard reaper fires), dca.oom (allocate until refusal / retained
// bloat) — are armed against a serving session running with
// isolate_dca, and the crash-only invariants are asserted: the parent
// never dies, every failure is typed analysis_crashed or served
// degraded, the breaker opens under a storm and recovers after it, and
// hard resource limits kill what cooperative deadlines cannot.
//
// Part of `ctest -R chaos` like the other chaos binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/deadline.hpp"
#include "common/fault.hpp"
#include "common/subprocess.hpp"
#include "core/features.hpp"
#include "gpu/device_db.hpp"
#include "sandbox/worker_pool.hpp"
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

double ipc_of(const std::string& body) {
  const std::size_t pos = body.find("\"ipc\":");
  return pos == std::string::npos
             ? -1.0
             : std::strtod(body.c_str() + pos + 6, nullptr);
}

ServeOptions isolated_options() {
  ServeOptions options;
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  options.n_threads = 4;
  options.isolate_dca = true;
  options.dca_workers = 2;
  options.breaker_cooldown_ms = 300;
  return options;
}

class SandboxChaos : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

// With one worker the retry after a crash is served by a respawned
// worker, forked after the session trained: its copy of the shared
// thread pool has no threads, and alexnet has enough launches for the
// DCA to fan out over that pool.
TEST_F(SandboxChaos, WorkerCrashIsTypedAndTheServerSurvives) {
  for (const int workers : {2, 1}) {
    SCOPED_TRACE("dca_workers=" + std::to_string(workers));
    ServeOptions options = isolated_options();
    options.dca_workers = workers;
    ServeSession session(options);
    {
      fault::ScopedFault crash("dca.crash", fault::Spec{});
      const std::string body =
          session.handle_line("predict alexnet v100s --no-degrade");
      EXPECT_TRUE(has(body, "\"ok\":false")) << body;
      EXPECT_TRUE(has(body, "\"code\":\"analysis_crashed\"")) << body;
    }
    EXPECT_GE(session.metrics().counter_value("analysis_crashes"), 1u);
    // The crash domain was the worker: the parent answers, and a retry
    // on a fresh worker (fault disarmed) succeeds with full DCA, fast,
    // and exactly as the in-process path answers.
    EXPECT_TRUE(has(session.handle_line("health"), "\"ok\":true"));
    const auto start = Clock::now();
    const std::string retry = session.handle_line("predict alexnet v100s");
    EXPECT_LT(ms_since(start), 1000);
    EXPECT_TRUE(has(retry, "\"ok\":true")) << retry;
    EXPECT_TRUE(has(retry, "\"degraded\":false")) << retry;
    const double in_process = session.estimator().predict(
        core::FeatureExtractor().compute(cnn::zoo::build("alexnet")),
        gpu::device("v100s"));
    EXPECT_EQ(ipc_of(retry), in_process);
    if (workers == 1) {
      EXPECT_GE(session.sandbox_pool()->stats().worker_respawns, 1u);
    }
  }
}

TEST_F(SandboxChaos, CrashYieldsDegradedPredictionWhenAllowed) {
  ServeSession session(isolated_options());
  fault::ScopedFault crash("dca.crash", fault::Spec{});
  const std::string body = session.handle_line("predict alexnet v100s");
  EXPECT_TRUE(has(body, "\"ok\":true")) << body;
  EXPECT_TRUE(has(body, "\"degraded\":true")) << body;
  EXPECT_GE(session.metrics().counter_value("analysis_crashes"), 1u);
  EXPECT_GE(session.metrics().counter_value("degraded"), 1u);
}

// The acceptance scenario: dca.crash armed at 100%, 64 concurrent
// clients, zero parent deaths — every response is either a degraded
// prediction or a typed error, health/ready answer throughout, the
// breaker opens, and one cooldown after disarming the storm the
// session serves full-DCA predictions again.
TEST_F(SandboxChaos, CrashStormSixtyFourClientsServerStaysLive) {
  ServeSession session(isolated_options());
  fault::arm("dca.crash", fault::Spec{});  // every request, forever

  constexpr int kClients = 64;
  const char* kModels[] = {"alexnet", "mobilenet", "MobileNetV2"};
  std::atomic<int> typed{0};
  std::atomic<int> degraded{0};
  std::atomic<int> untyped{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      const std::string model = kModels[i % 3];
      const bool allow_degrade = i % 2 == 0;
      const std::string body = session.handle_line(
          "predict " + model + " v100s" +
          (allow_degrade ? "" : " --no-degrade"));
      if (has(body, "\"degraded\":true")) degraded.fetch_add(1);
      else if (has(body, "\"code\":\"analysis_crashed\"") ||
               has(body, "\"code\":\"analysis_failed\""))
        typed.fetch_add(1);
      else untyped.fetch_add(1);
      // Liveness probes race the storm: the cheap verbs always answer.
      EXPECT_TRUE(has(session.handle_line("health"), "\"ok\":true"));
      EXPECT_TRUE(has(session.handle_line("ready"), "\"ok\":true"));
    });
  for (auto& t : clients) t.join();

  EXPECT_EQ(untyped.load(), 0);
  EXPECT_EQ(typed.load() + degraded.load(), kClients);
  EXPECT_GT(degraded.load(), 0);
  // Sustained per-module failures opened the breaker at least once.
  EXPECT_GE(session.metrics().counter_value("breaker_open"), 1u);
  EXPECT_GE(session.metrics().counter_value("analysis_crashes"), 1u);

  // Storm over: within one breaker cooldown a half-open probe runs the
  // real analysis on a fresh worker and the session fully recovers.
  fault::disarm_all();
  const auto recover_start = Clock::now();
  bool recovered = false;
  while (ms_since(recover_start) < 10'000) {
    const std::string body =
        session.handle_line("predict alexnet v100s");
    if (has(body, "\"ok\":true") && has(body, "\"degraded\":false")) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(recovered);
}

TEST_F(SandboxChaos, HangIsHardKilledWithinTheConfiguredBudget) {
  ServeOptions options = isolated_options();
  options.dca_hard_timeout_ms = 1000;
  ServeSession session(options);
  fault::ScopedFault wedge("dca.hang", fault::Spec{});

  const auto start = Clock::now();
  const std::string body =
      session.handle_line("predict mobilenet v100s --no-degrade");
  // An infinite worker-side loop the cooperative Deadline cannot see:
  // only the SIGKILL reaper ends it, within the hard budget (+ slack).
  EXPECT_LT(ms_since(start), 5000);
  EXPECT_TRUE(has(body, "\"code\":\"analysis_crashed\"")) << body;
  EXPECT_TRUE(has(body, "hard deadline")) << body;
  EXPECT_GE(session.metrics().counter_value("analysis_crashes"), 1u);
}

TEST_F(SandboxChaos, CooperativeDeadlineStillWinsInsideTheWorker) {
  ServeSession session(isolated_options());
  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.delay_ms = 5000;
  fault::ScopedFault stall("dca.compute", slow);

  const auto start = Clock::now();
  const std::string body = session.handle_line(
      "predict alexnet v100s --deadline-ms 50 --no-degrade");
  // The worker's own Deadline fires long before the hard reaper: the
  // PR-3 timeout taxonomy is preserved under isolation.
  EXPECT_LT(ms_since(start), 3000);
  EXPECT_TRUE(has(body, "\"code\":\"analysis_timeout\"")) << body;
}

TEST_F(SandboxChaos, AddressSpaceLimitTurnsOomIntoATypedFailure) {
  sandbox::PoolOptions options;
  options.workers = 1;
  // Enough headroom over the test process's current mappings for the
  // worker to run, far too little for an unbounded allocation spree.
  options.worker_as_mb = self_vsize_kb() / 1024 + 512;
  sandbox::WorkerPool pool(options);
  fault::ScopedFault oom("dca.oom", fault::Spec{});
  try {
    pool.check_ptx(".visible .entry noop() { ret; }", Deadline());
    FAIL() << "oom site did not fire";
  } catch (const CheckError& e) {
    // bad_alloc under RLIMIT_AS → graceful typed refusal, not a crash.
    EXPECT_TRUE(has(e.what(), "allocation refused")) << e.what();
  }
  EXPECT_EQ(pool.stats().worker_crashes, 0u);
  EXPECT_EQ(pool.stats().worker_kills_timeout, 0u);
}

TEST_F(SandboxChaos, RetainedBloatTripsTheRssCeiling) {
  sandbox::PoolOptions options;
  options.workers = 1;
  options.worker_rss_mb = self_rss_kb() / 1024 + 64;
  sandbox::WorkerPool pool(options);
  fault::Spec bloat;
  bloat.action = fault::Action::kDelay;
  bloat.delay_ms = 128;  // dca.oom's parameter: retain 128 MiB
  bloat.remaining = 1;
  fault::arm("dca.oom", bloat);
  // The request itself succeeds — the ballast is retained, the parent
  // sees the self-reported RSS over the ceiling and kills the worker.
  pool.check_ptx(".visible .entry noop() { ret; }", Deadline());
  EXPECT_EQ(pool.stats().worker_kills_oom, 1u);
  // The next request gets a fresh, slim worker.
  pool.check_ptx(".visible .entry noop() { ret; }", Deadline());
  EXPECT_GE(pool.stats().worker_respawns, 1u);
}

TEST_F(SandboxChaos, CrashingFingerprintsLandInTheQuarantineLog) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("gpuperf_quarantine_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ServeOptions options = isolated_options();
  options.dca_quarantine_dir = dir.string();
  {
    ServeSession session(options);
    fault::ScopedFault crash("dca.crash", fault::Spec{});
    session.handle_line("predict vgg16 v100s --no-degrade");
  }
  std::ifstream log(dir / "quarantine.log");
  ASSERT_TRUE(log.good());
  std::stringstream contents;
  contents << log.rdbuf();
  EXPECT_TRUE(has(contents.str(), "model=vgg16")) << contents.str();
  EXPECT_TRUE(has(contents.str(), "fingerprint=")) << contents.str();
  EXPECT_TRUE(has(contents.str(), "reason=crashed")) << contents.str();
  fs::remove_all(dir);
}

// Satellite of docs/ROBUSTNESS.md: the fuzz crash corpus replays
// through the sandboxed path — every corpus input either parses or is
// rejected with a typed error; none of them may kill a worker (a crash
// here is a real parser bug the sandbox just caught for free).
TEST_F(SandboxChaos, FuzzPtxCorpusReplaysWithoutWorkerCrashes) {
  const fs::path corpus = fs::path(GPUPERF_SOURCE_DIR) / "fuzz" /
                          "corpus" / "ptx";
  if (!fs::exists(corpus)) GTEST_SKIP() << "no corpus at " << corpus;
  sandbox::PoolOptions options;
  options.workers = 1;
  sandbox::WorkerPool pool(options);
  int replayed = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    try {
      pool.check_ptx(bytes.str(), Deadline::after_ms(30'000));
    } catch (const CheckError&) {
      // Typed rejection is a valid outcome for corpus inputs.
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0);
  EXPECT_EQ(pool.stats().worker_crashes, 0u);
  EXPECT_EQ(pool.stats().worker_kills_timeout, 0u);
}

}  // namespace
}  // namespace gpuperf::serve

#endif  // GPUPERF_FAULT_INJECTION
