// gpuperf benchmark program: sets the service up, runs one workload for a
// fixed time, checks every answer, and prints the metrics.
//
//   perfbench --workload <serve-mix|cold-rank|dse-warm> --seed N
//             --seconds S --trace <0|1> [--spans out.csv]
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the time
// into an untraced and a traced half and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// Build and run it through perfbench/run.py.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/dataset_builder.hpp"
#include "json_flat.hpp"
#include "oracle.hpp"
#include "ptx/codegen.hpp"
#include "ptx/counter.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using gpuperf::Stopwatch;
using gpuperf::ptx::InstructionCounter;
using gpuperf::serve::ServeSession;
using gpuperf::serve::TcpServer;

/// Set-ups per run: half before the measured window, half after it.
/// Set-up time is their quartile at the fast end, so only a slow phase
/// of the host that spans the whole run moves it.
constexpr int kSetups = 20;
/// Untimed ops before the measured window (allocator, CPU caches and
/// pool threads settle; answers are still checked), capped at this
/// share of the window.
constexpr double kWarmupSeconds = 2.0;
constexpr double kWarmupShare = 0.2;
/// Segments of the measured window (see Window for how they combine).
constexpr int kSegments = 30;
/// Seed of the hold-out split: fixed, so the accuracy figure changes
/// only when predictions do.
constexpr std::uint64_t kHoldoutSeed = 42;
/// Share of a cold rank that the timed stages (build, analyze, compile,
/// count, ten predicts) must cover; recorded with cold-rank in
/// BENCHMARK.json.  A traced cold-rank run below it is not correct.
constexpr double kRequiredStageCoverage = 0.4;
/// Minimum replayed request lines in a traced run.
constexpr std::size_t kReplayRequests = 400;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--spans") args.spans_path = value;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0)
    return std::nullopt;
  return args;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The paper's accuracy figure: a dt estimator trained on a seeded 70%
/// of the full-zoo dataset, scored on the other 30%.
double holdout_mape_pct() {
  const gpuperf::ml::Dataset data = gpuperf::core::DatasetBuilder().build();
  gpuperf::Rng rng(kHoldoutSeed);
  const auto [train, test] = data.split(0.7, rng);
  gpuperf::core::PerformanceEstimator estimator("dt", kHoldoutSeed);
  estimator.train(train);
  return estimator.evaluate(test).mape;
}

/// holdout_mape_pct() in a forked child, so its dataset and second
/// estimator never count toward this process's peak RSS.  Call it while
/// the process has a single thread.
double holdout_mape_pct_in_child() {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    double mape = -1.0;
    try {
      mape = holdout_mape_pct();
    } catch (...) {
    }
    const bool sent = ::write(fds[1], &mape, sizeof(mape)) == sizeof(mape);
    ::_exit(sent && mape >= 0.0 ? 0 : 1);
  }
  ::close(fds[1]);
  double mape = -1.0;
  ssize_t got = -1;
  do {
    got = ::read(fds[0], &mape, sizeof(mape));
  } while (got < 0 && errno == EINTR);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(mape) || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("the hold-out accuracy child failed");
  return mape;
}

/// Counter deltas between two `stats` answers.
class StatsDelta {
 public:
  StatsDelta(FlatJson before, FlatJson after)
      : before_(std::move(before)), after_(std::move(after)) {}
  std::optional<double> operator()(const std::string& path) const {
    const auto a = number_at(before_, path);
    const auto b = number_at(after_, path);
    if (!a || !b) return std::nullopt;
    return *b - *a;
  }

 private:
  FlatJson before_, after_;
};

FlatJson stats_of(ServeSession& session) {
  return flatten_json(session.handle_line("stats"));
}

/// `part / whole`, noted with its base; 0 when the counter is absent or
/// the base is empty.
Metric ratio(const std::string& name, std::optional<double> part,
             std::optional<double> whole, const std::string& unit,
             const std::string& what) {
  if (!part || !whole)
    return {name, 0.0, unit, "absent: `stats` has no " + what};
  if (*whole == 0) return {name, 0.0, unit, "base 0 (" + what + ")"};
  return {name, *part / *whole, unit,
          number(*part) + " / " + number(*whole) + " " + what};
}

/// p50 of a span or derived figure.  A workload that never calls the
/// layer reads 0, noted as absent.
Metric p50_of(const std::string& name, const std::vector<double>& samples,
              const std::string& unit) {
  if (samples.empty())
    return {name, 0.0, unit, "absent: not on this workload's path"};
  const Summary s = summarize(samples);
  return {name, s.p50, unit, "n=" + std::to_string(s.n)};
}

/// `items` cycled until there are at least `count` of them.
std::vector<std::string> repeated(const std::vector<std::string>& items,
                                  std::size_t count) {
  std::vector<std::string> out;
  while (!items.empty() && out.size() < count)
    out.insert(out.end(), items.begin(), items.end());
  return out;
}

/// Replays a sample of the workload's own request lines through the
/// serve entry points and, where the workload has a server, one loopback
/// connection.  Where the traced window did not already time the
/// estimator, it also times PerformanceEstimator::predict on the
/// workload's own models.
void replay(Env& env, const Workload& workload) {
  Tracer& t = *env.tracer;
  std::uint64_t op = std::uint64_t{1} << 40;  // apart from window op ids

  std::unique_ptr<LineClient> client;
  if (env.server != nullptr)
    client = std::make_unique<LineClient>(env.server->port());
  for (const std::string& line :
       repeated(workload.sample_lines(), kReplayRequests)) {
    // The timed calls below see the state this untimed one leaves.
    env.session.handle_line(line);
    const std::uint64_t id = op++;
    gpuperf::serve::Request request;
    {
      const ScopedSpan s(t, "serve.parse_request", id);
      request = gpuperf::serve::parse_request(line);
    }
    {
      const ScopedSpan s(t, "replay.handle", id);
      (void)env.session.handle(request);
    }
    if (client) {
      const ScopedSpan s(t, "net.rtt", id);
      (void)client->round_trip(line);
    }
  }

  if (!t.has("core.predict")) {
    const auto estimator = env.session.estimator_ptr();
    for (const std::string& model : workload.sample_models()) {
      const auto& features = env.oracle.features(env.oracle.model_index(model));
      for (const gpuperf::gpu::DeviceSpec* device : env.oracle.devices()) {
        const ScopedSpan s(t, "core.predict", op++);
        (void)estimator->predict(features, *device);
      }
    }
  }
}

std::vector<Metric> per_layer_metrics(const Tracer& t, const Derived& derived,
                                      const StatsDelta& delta,
                                      const Window& untraced,
                                      const Window& traced, double train_s,
                                      double library_s) {
  const double ops = static_cast<double>(untraced.attempted);
  const auto per_op = [&](const std::string& name, const std::string& path,
                          const std::string& unit) {
    return ratio(name, delta(path), ops, unit, path + " per op");
  };
  const auto derived_of = [&](const std::string& key) {
    const auto it = derived.find(key);
    return it == derived.end() ? std::vector<double>{} : it->second;
  };
  const char* const kNoNet = "absent: the workload sends no request over net";
  const Summary rtt = summarize(t.self_us("net.rtt"));
  const Summary handle = summarize(t.self_us("replay.handle"));
  const auto hits = [&](const std::string& base) {
    const auto h = delta(base + "hits");
    const auto m = delta(base + "misses");
    return ratio("", h, h && m ? std::optional<double>(*h + *m) : std::nullopt,
                 "ratio", base + "hits / lookups");
  };
  auto named = [](Metric m, const std::string& name) {
    m.name = name;
    return m;
  };
  const double dse_answers = static_cast<double>(traced.dse_answers +
                                                 untraced.dse_answers);
  std::vector<Metric> out = {
      {"op.latency_p99_us", untraced.p99(), "us",
       "untraced half, fast-end quartile of " +
           std::to_string(untraced.segments().size()) + " segments, n=" +
           std::to_string(untraced.samples())},
      rtt.n == 0 ? Metric{"net.rtt_p50_us", 0.0, "us", kNoNet}
                 : Metric{"net.rtt_p50_us", rtt.p50, "us",
                          "loopback send-to-reply, n=" + std::to_string(rtt.n)},
      rtt.n == 0
          ? Metric{"net.overhead_p50_us", 0.0, "us", kNoNet}
          : Metric{"net.overhead_p50_us", rtt.p50 - handle.p50, "us",
                   "net.rtt p50 minus in-process handle p50 on the same lines"},
      per_op("net.epoll_wakeups_per_op", "counters.epoll_wakeups", "count"),
      per_op("net.bytes_out_per_op", "counters.bytes_out", "B"),
      p50_of("serve.parse_request_us", t.self_us("serve.parse_request"), "us"),
      {"serve.handle_p50_us", handle.p50, "us",
       "n=" + std::to_string(handle.n)},
      {"serve.handle_p99_us", handle.p99, "us",
       "n=" + std::to_string(handle.n)},
      named(hits("caches.results."), "serve.result_cache.hit_ratio"),
      named(hits("caches.features."), "serve.feature_cache.hit_ratio"),
      per_op("serve.batcher.batches_per_op", "batch.batches", "count"),
      ratio("serve.batcher.mean_batch", delta("batch.batched_requests"),
            delta("batch.batches"), "count",
            "batch.batched_requests / batch.batches"),
      p50_of("serve.unattributed_us", derived_of("serve.unattributed"), "us"),
      p50_of("cnn.build_us", t.self_us("cnn.build"), "us"),
      p50_of("cnn.analyze_us", t.self_us("cnn.analyze"), "us"),
      p50_of("ptx.compile_us", t.self_us("ptx.compile"), "us"),
      p50_of("ptx.count_us", t.self_us("ptx.count"), "us"),
      named(hits("dca.memo_"), "ptx.memo.hit_ratio"),
      per_op("ptx.memo.misses_per_op", "dca.memo_misses", "count"),
      per_op("ptx.parallel_tasks_per_op", "dca.parallel_tasks", "count"),
      p50_of("core.dca_us", t.self_us("core.dca"), "us"),
      p50_of("core.predict_us", t.self_us("core.predict"), "us"),
      p50_of("dse.sweep_us", t.self_us("dse.sweep"), "us"),
      p50_of("dse.rank_us", t.self_us("dse.rank"), "us"),
      p50_of("dse.serialize_us", derived_of("dse.serialize"), "us"),
      per_op("dse.cells_per_op", "counters.dse_sweep_cells", "count"),
      ratio("dse.unique_topologies_per_op",
            static_cast<double>(traced.dse_unique_topologies +
                                untraced.dse_unique_topologies),
            dse_answers, "count", "over feasible dse answers"),
      ratio("dse.features_computed_per_op",
            static_cast<double>(traced.dse_features_computed +
                                untraced.dse_features_computed),
            dse_answers, "count", "over feasible dse answers"),
      {"setup.train_s", train_s, "s",
       "fast-end quartile of " + std::to_string(kSetups) +
           " ServeSession constructions"},
      {"setup.library_parse_s", library_s, "s",
       "first parsed_kernel_library() + InstructionCounter"},
      {"trace.overhead_pct",
       untraced.p50() > 0
           ? 100.0 * (traced.p50() - untraced.p50()) / untraced.p50()
           : 0.0,
       "%",
       "op p50 traced " + number(traced.p50()) + " us (n=" +
           std::to_string(traced.samples()) + ") vs untraced " +
           number(untraced.p50()) + " us (n=" +
           std::to_string(untraced.samples()) + ")"},
      p50_of("stage.coverage", derived_of("stage.coverage"), "ratio"),
  };
  Metric& coverage = out.back();
  if (!derived_of("stage.coverage").empty())
    coverage.note += ", required " + number(kRequiredStageCoverage);
  return out;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  // Before anything else, while the process has one thread.
  const double mape = holdout_mape_pct_in_child();

  // ---- set-up: what a user waits for before the first answer -------
  Stopwatch library_watch;
  (void)gpuperf::ptx::CodeGenerator::parsed_kernel_library();
  { const InstructionCounter bind_shared_library; }
  const double library_s = library_watch.elapsed_seconds();

  std::unique_ptr<ServeSession> session;
  std::unique_ptr<TcpServer> server;
  std::vector<double> setup_times, train_times;
  const auto set_up = [&] {
    server.reset();
    session.reset();
    InstructionCounter::reset_memo();  // each set-up starts as cold as the first
    Stopwatch watch;
    session = std::make_unique<ServeSession>();
    train_times.push_back(watch.elapsed_seconds());
    if (workload->needs_server()) {
      server = std::make_unique<TcpServer>(*session);
      server->start();
    }
    workload->warm(*session);
    setup_times.push_back(watch.elapsed_seconds());
  };
  // The second half of the set-ups, once the window is over.
  const auto set_up_after_window = [&] {
    for (int i = 0; i < kSetups / 2; ++i) set_up();
    server.reset();
    session.reset();
  };
  for (int i = 0; i < kSetups - kSetups / 2; ++i) set_up();
  const double setup_peak_mib = peak_rss_mib();

  // ---- benchmark-side preparation (not part of set-up time) --------
  const Oracle oracle(session->estimator_ptr());
  workload->prepare(oracle, args.seed);
  const double prepared_peak_mib = peak_rss_mib();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  oracle digest %016llx over %zu predict + %zu rank answers\n",
              static_cast<unsigned long long>(oracle.digest()),
              oracle.models().size() * oracle.devices().size(),
              oracle.models().size());

  std::vector<Metric> metrics, report_only;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto account = [&](const Window& w) {
    attempted += w.attempted;
    failed += w.failed;
    errors.insert(errors.end(), w.errors.begin(), w.errors.end());
  };

  // Runs `workload` for `seconds`, cut into kSegments segments.
  const auto measure = [&](Env& on, double seconds, int segments) {
    Window window(seconds / segments);
    workload->run(on, seconds, window);
    window.finish();
    account(window);
    return window;
  };
  Env env{*session, server.get(), oracle, nullptr, nullptr};
  measure(env, std::min(kWarmupSeconds, kWarmupShare * args.seconds), 1);
  bool stages_add_up = true;
  if (!args.trace) {
    const Window window = measure(env, args.seconds, kSegments);
    const double peak_mib = peak_rss_mib();
    set_up_after_window();
    const std::string n = window.basis();
    metrics = {
        {"setup_s",
         library_s + percentile(setup_times, Window::kSegmentQuantile), "s",
         "library " + number(library_s) + " s + fast-end quartile of " +
             std::to_string(setup_times.size()) + " set-ups"},
        {"throughput_ops_s", window.throughput(), "ops/s", n},
        {"latency_p50_us", window.p50(), "us", n},
        {"peak_rss_mib", peak_mib, "MiB",
         "getrusage max RSS; " + number(setup_peak_mib) +
             " after set-up, " + number(prepared_peak_mib) +
             " after the oracle and inputs"},
        {"holdout_mape_pct", mape, "%", "dt, 70/30 split, seed 42"},
    };
    // The tail is printed but carries no bound: on a shared host it
    // swings far more between runs than any bound allows.
    report_only.push_back(
        {"latency_p99_us", window.p99(), "us",
         "fast-end quartile of " + std::to_string(window.segments().size()) +
             " segments, n=" + std::to_string(window.samples())});
  } else {
    const double half = args.seconds / 2.0;
    FlatJson before = stats_of(*session);
    const Window untraced = measure(env, half, kSegments / 2);
    StatsDelta delta(std::move(before), stats_of(*session));

    Tracer tracer;
    Derived derived;
    Env traced_env{*session, server.get(), oracle, &tracer, &derived};
    const Window traced = measure(traced_env, half, kSegments / 2);
    replay(traced_env, *workload);
    set_up_after_window();
    metrics = per_layer_metrics(
        tracer, derived, delta, untraced, traced,
        percentile(train_times, Window::kSegmentQuantile), library_s);
    if (!args.spans_path.empty() && !tracer.write_csv(args.spans_path))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
    // ROADMAP's "the stages must add up", on the workloads that stage.
    const auto coverage = derived.find("stage.coverage");
    if (coverage != derived.end() &&
        summarize(coverage->second).p50 < kRequiredStageCoverage) {
      stages_add_up = false;
      errors.push_back("stage.coverage " +
                       number(summarize(coverage->second).p50) +
                       " is below the required " +
                       number(kRequiredStageCoverage));
    }
  }

  std::printf("  failed_ratio = %llu / %llu\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& e : errors) std::printf("  failed: %s\n", e.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-32s %14s %-6s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  for (const Metric& m : report_only)
    std::printf("  %-32s %14s %-6s %s (report only)\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());

  std::string json = "{\"correct\":";
  json += failed == 0 && attempted > 0 && stages_add_up ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics[i].name + "\":{\"value\":" +
            number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto args = perfbench::parse_args(argc, argv);
    if (!args) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <serve-mix|cold-rank|dse-warm> "
                   "--seed N --seconds S --trace <0|1> [--spans FILE]\n");
      return 2;
    }
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
