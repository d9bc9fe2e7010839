// gpuperf command-line tool: the library's workflow without writing
// C++.
//
//   gpuperf models                          list the Table I zoo
//   gpuperf devices                         list known GPGPUs
//   gpuperf analyze <model> [--layers]      static analysis report
//   gpuperf ptx [--model <name>]            print the kernel library or
//                                           a model's launch plan
//   gpuperf dataset [--out <csv>] [--devices a,b] [--extended]
//   gpuperf train --out <file> | --registry <dir>   train + save/publish
//   gpuperf predict <model> <device> [--tree <file>] [--registry <dir>]
//   gpuperf rank <model> [--tree <file>] [--registry <dir>]
//                                           ranking over all devices
//   gpuperf dse <models|all> [--devices a,b] [--max-latency-ms N] ...
//                                           constraint-aware fleet sweep
//   gpuperf serve [--port N] [--threads K]  long-lived estimation daemon
//   gpuperf client <request...> [--port N]  one request to a daemon
//
// predict, rank and dse share one model source: --tree (a file from
// `train --out`, any regressor), then a registry bundle (--registry or
// $GPUPERF_REGISTRY, --version), then a --regressor/--seed model
// trained from scratch.
//
// Flags accept both `--key value` and the explicit `--key=value` form
// (required when the value itself starts with "--"); the grammar is
// serve::parse_command, shared with the server's wire protocol.
#include <algorithm>
#include <cstdlib>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cnn/static_analyzer.hpp"
#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/subprocess.hpp"
#include "common/table.hpp"
#include "common/deadline.hpp"
#include "core/dataset_builder.hpp"
#include "core/dse.hpp"
#include "core/estimator.hpp"
#include "dse/sweep.hpp"
#include "gpu/device_db.hpp"
#include "ml/cross_validation.hpp"
#include "ptx/codegen.hpp"
#include "ptx/counter.hpp"
#include "registry/feature_store.hpp"
#include "registry/registry.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace {

using namespace gpuperf;

constexpr int kDefaultPort = 8471;

using Args = serve::ParsedCommand;

Args parse_args(int argc, char** argv) {
  std::vector<std::string> words;
  for (int i = 2; i < argc; ++i) words.emplace_back(argv[i]);
  return serve::parse_command(words);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: gpuperf <command> [args]\n"
      "  models                         list the CNN zoo\n"
      "  devices                        list known GPGPUs\n"
      "  analyze <model> [--layers]     static analysis of a zoo model\n"
      "  ptx [--model <name>]           kernel library / launch plan\n"
      "  dataset [--out f.csv] [--devices a,b] [--extended]\n"
      "  train --out <file> | --registry <dir>   train + save or publish\n"
      "        [--regressor id] [--seed N] [--models a,b] [--devices a,b]\n"
      "        [--folds K] [--max-regress PP] [--force]\n"
      "  predict <model> <device> [--tree <file>] [--registry <dir>]\n"
      "  rank <model> [--tree <file>] [--registry <dir>]\n"
      "        ranking over all devices; predict, rank and dse load\n"
      "        --tree, else a registry bundle (--registry, else\n"
      "        $GPUPERF_REGISTRY; --version vNNNN), else train\n"
      "        [--regressor id] [--seed N] from scratch\n"
      "  dse <models|all> [--devices a,b] [--max-latency-ms N]\n"
      "        [--max-power-w N] [--max-cost-usd N] [--w-latency N]\n"
      "        [--w-power N] [--w-cost N] [--store <dir>] [--tree <file>]\n"
      "        [--registry <dir>] [--deadline-ms N] [--no-degrade]\n"
      "        constraint-aware fleet sweep (docs/DSE.md)\n"
      "  serve [--port N] [--threads K] [--tree <file>] [--models a,b]\n"
      "        [--regressor id] [--registry <dir>]\n"
      "        [--version vNNNN] [--feature-store <dir>] [--poll-ms N]\n"
      "        [--deadline-ms N] [--step-budget N] [--no-degrade]\n"
      "        [--max-inflight N] [--max-line-bytes N]\n"
      "        [--backlog N] [--idle-timeout-ms N]\n"
      "        [--read-progress-timeout-ms N] [--max-output-buffer N]\n"
      "        [--breaker-threshold N] [--breaker-cooldown-ms N]\n"
      "        [--dca-spill-dir <dir>] [--dca-spill-budget BYTES]\n"
      "        [--workers K] [--max-pending N]\n"
      "        [--isolate-dca] [--dca-workers N] [--dca-worker-rss-mb N]\n"
      "        [--dca-hard-timeout-ms N] [--dca-worker-as-mb N]\n"
      "        [--dca-quarantine-dir <dir>] (sandboxed analysis workers,\n"
      "        docs/ROBUSTNESS.md \"Crash isolation\")\n"
      "  client <request...> [--host H] [--port N] [--timeout-ms N]\n"
      "        [--retries N] (backoff with jitter on failure/overload)\n"
      "        [--endpoints h:p,h:p] [--hedge] [--hedge-delay-ms N]\n"
      "        (failover across endpoints; --hedge races idempotent\n"
      "        requests on a second endpoint after the delay)\n"
      "        e.g. `gpuperf client predict resnet50v2 teslat4`\n");
  return 2;
}

int cmd_models() {
  TextTable table("CNN zoo (paper Table I)");
  table.set_header({"name", "input", "trainable params"});
  const cnn::StaticAnalyzer analyzer;
  for (const auto& entry : cnn::zoo::all_models()) {
    const cnn::Model model = entry.build();
    const auto report = analyzer.analyze(model);
    const auto in = model.input_shape();
    table.add_row({entry.name,
                   std::to_string(in.h) + "x" + std::to_string(in.w),
                   with_commas(report.trainable_params)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_devices() {
  TextTable table("GPGPU database");
  table.set_header({"id", "name", "arch", "SMs", "cores", "boost MHz",
                    "BW GB/s", "L2 KB"});
  for (const auto& d : gpu::device_database())
    table.add_row({d.name, d.full_name, d.architecture,
                   std::to_string(d.sm_count), std::to_string(d.cuda_cores),
                   fixed(d.boost_clock_mhz, 0),
                   fixed(d.memory_bandwidth_gbs, 0),
                   std::to_string(d.l2_cache_kb)});
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string& name = args.positional.front();
  if (!cnn::zoo::has_model(name)) {
    std::fprintf(stderr, "unknown model '%s' (try `gpuperf models`)\n",
                 name.c_str());
    return 1;
  }
  const auto report =
      cnn::StaticAnalyzer().analyze(cnn::zoo::build(name));
  std::printf("%s",
              to_string(report, args.flags.count("layers") > 0).c_str());
  return 0;
}

int cmd_ptx(const Args& args) {
  const auto it = args.flags.find("model");
  if (it == args.flags.end()) {
    std::printf("%s", ptx::CodeGenerator::kernel_library().to_ptx().c_str());
    return 0;
  }
  if (!cnn::zoo::has_model(it->second)) {
    std::fprintf(stderr, "unknown model '%s'\n", it->second.c_str());
    return 1;
  }
  const ptx::CompiledModel compiled =
      ptx::CodeGenerator().compile(cnn::zoo::build(it->second));
  const ptx::InstructionCounter counter;
  const auto profile = counter.count(compiled);
  TextTable table("launch plan of " + it->second);
  table.set_header({"#", "kernel", "grid", "block", "instructions"});
  for (std::size_t i = 0; i < compiled.launches.size(); ++i) {
    const auto& l = compiled.launches[i];
    table.add_row({std::to_string(i), l.kernel,
                   std::to_string(l.grid_dim), std::to_string(l.block_dim),
                   with_commas(profile.per_launch[i])});
  }
  std::printf("%s", table.render().c_str());
  std::printf("total: %s dynamic instructions over %lld launches\n",
              with_commas(profile.total_instructions).c_str(),
              static_cast<long long>(profile.launch_count));
  return 0;
}

int cmd_dataset(const Args& args) {
  core::DatasetOptions options;
  if (const auto it = args.flags.find("devices"); it != args.flags.end())
    options.devices = split(it->second, ',');
  options.extended_cnn_features = args.flags.count("extended") > 0;
  std::fprintf(stderr, "building dataset...\n");
  const ml::Dataset data = core::DatasetBuilder(options).build();
  const CsvDocument csv = data.to_csv();
  if (const auto it = args.flags.find("out"); it != args.flags.end()) {
    csv_save(csv, it->second);
    std::fprintf(stderr, "wrote %zu rows to %s\n", data.size(),
                 it->second.c_str());
  } else {
    std::printf("%s", csv_write(csv).c_str());
  }
  return 0;
}

std::uint64_t seed_from(const Args& args) {
  const auto it = args.flags.find("seed");
  return it == args.flags.end()
             ? 42
             : static_cast<std::uint64_t>(parse_int(it->second));
}

int cmd_train(const Args& args) {
  const auto out = args.flags.find("out");
  const auto reg = args.flags.find("registry");
  if (out == args.flags.end() && reg == args.flags.end()) return usage();

  core::DatasetOptions data_options;
  if (const auto it = args.flags.find("models"); it != args.flags.end())
    data_options.models = split(it->second, ',');
  if (const auto it = args.flags.find("devices"); it != args.flags.end())
    data_options.devices = split(it->second, ',');
  const std::string regressor_id = args.flag_or("regressor", "dt");
  const std::uint64_t seed = seed_from(args);

  std::fprintf(stderr, "building dataset and training %s estimator...\n",
               regressor_id.c_str());
  const ml::Dataset data = core::DatasetBuilder(data_options).build();
  core::PerformanceEstimator estimator(regressor_id, seed);
  estimator.train(data);

  if (out != args.flags.end()) {
    estimator.save(out->second);
    std::fprintf(stderr, "saved %s model to %s\n", regressor_id.c_str(),
                 out->second.c_str());
  }
  if (reg != args.flags.end()) {
    const auto folds =
        static_cast<std::size_t>(parse_int(args.flag_or("folds", "5")));
    registry::Manifest manifest;
    manifest.regressor_id = regressor_id;
    manifest.seed = seed;
    manifest.train_models = data_options.models;
    manifest.train_devices = data_options.devices;
    if (folds > 1) {
      std::fprintf(stderr, "running %zu-fold cross-validation...\n", folds);
      const ml::CvResult cv =
          ml::cross_validate(data, folds, regressor_id, seed);
      manifest.cv_folds = folds;
      manifest.cv_mape = cv.pooled.mape;
      manifest.cv_r2 = cv.pooled.r2;
    }
    registry::PublishOptions publish_options;
    publish_options.force = args.has_flag("force");
    if (const auto it = args.flags.find("max-regress");
        it != args.flags.end())
      publish_options.max_mape_regression = parse_double(it->second);
    registry::ModelRegistry registry(reg->second);
    const std::string version =
        registry.publish(estimator, manifest, publish_options);
    std::printf("published %s bundle %s to %s (cv mape %.2f%%, r2 %.3f)\n",
                regressor_id.c_str(), version.c_str(), reg->second.c_str(),
                manifest.cv_mape, manifest.cv_r2);
  }
  return 0;
}

/// The estimator `predict`, `rank` and `dse` answer with: an explicit
/// --tree file (any regressor), then a registry bundle (--registry or
/// $GPUPERF_REGISTRY, pinned by --version), then a --regressor/--seed
/// model trained from scratch on the full zoo.
core::PerformanceEstimator load_estimator(const Args& args) {
  if (const auto it = args.flags.find("tree"); it != args.flags.end())
    return core::PerformanceEstimator::load(it->second);
  std::string registry_dir = args.flag_or("registry", "");
  if (registry_dir.empty())
    if (const char* env = std::getenv("GPUPERF_REGISTRY"))
      registry_dir = env;
  if (!registry_dir.empty() &&
      !registry::ModelRegistry(registry_dir).empty()) {
    registry::Bundle bundle = registry::ModelRegistry(registry_dir)
                                  .load(args.flag_or("version", ""));
    std::fprintf(stderr, "loaded %s bundle %s from %s\n",
                 bundle.manifest.regressor_id.c_str(),
                 bundle.version.c_str(), registry_dir.c_str());
    return std::move(bundle.estimator);
  }
  std::fprintf(stderr, "no --tree given; training from scratch...\n");
  core::PerformanceEstimator estimator(args.flag_or("regressor", "dt"),
                                       seed_from(args));
  estimator.train(core::DatasetBuilder().build());
  return estimator;
}

int cmd_predict(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const std::string& model_name = args.positional[0];
  const std::string& device_name = args.positional[1];
  if (!cnn::zoo::has_model(model_name) || !gpu::has_device(device_name)) {
    std::fprintf(stderr, "unknown model or device\n");
    return 1;
  }
  const core::PerformanceEstimator estimator = load_estimator(args);
  const core::ModelFeatures features =
      core::FeatureExtractor().compute(cnn::zoo::build(model_name));
  std::printf("%s on %s: predicted IPC %.4f\n", model_name.c_str(),
              device_name.c_str(),
              estimator.predict(features, gpu::device(device_name)));
  return 0;
}

int cmd_dse(const Args& args) {
  if (args.positional.empty()) return usage();

  std::vector<std::string> models;
  const std::string& spec = args.positional.front();
  if (spec == "all") {
    for (const auto& entry : cnn::zoo::all_models())
      models.push_back(entry.name);
  } else {
    for (const std::string& part : split(spec, ',')) {
      const std::string name{trim(part)};
      if (name.empty()) continue;
      if (!cnn::zoo::has_model(name)) {
        std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
        return 1;
      }
      models.push_back(name);
    }
  }
  if (models.empty()) return usage();

  const core::PerformanceEstimator estimator = load_estimator(args);

  // A --store directory is a feature store (the server's
  // --feature-store): a rerun over it performs no DCA.
  std::unique_ptr<registry::FeatureStore> store;
  dse::SweepEngine::Options engine_options;
  if (const auto it = args.flags.find("store"); it != args.flags.end()) {
    store = std::make_unique<registry::FeatureStore>(it->second);
    engine_options.store = store.get();
  }
  const dse::SweepEngine engine(estimator, std::move(engine_options));

  dse::SweepRequest request;
  request.models = std::move(models);
  if (const auto it = args.flags.find("devices"); it != args.flags.end())
    for (const std::string& part : split(it->second, ','))
      if (!trim(part).empty())
        request.devices.emplace_back(trim(part));
  const auto flag_double = [&](const char* key, double fallback) {
    const std::string value = args.flag_or(key, "");
    return value.empty() ? fallback : parse_double(value);
  };
  request.constraints.max_latency_ms = flag_double("max-latency-ms", 0.0);
  request.constraints.max_power_w = flag_double("max-power-w", 0.0);
  request.constraints.max_cost_usd = flag_double("max-cost-usd", 0.0);
  request.constraints.w_latency = flag_double("w-latency", 1.0);
  request.constraints.w_power = flag_double("w-power", 0.0);
  request.constraints.w_cost = flag_double("w-cost", 0.0);
  if (const auto it = args.flags.find("deadline-ms");
      it != args.flags.end())
    request.deadline = Deadline::after_ms(parse_int(it->second));
  request.allow_degrade = !args.has_flag("no-degrade");

  const dse::SweepResult result = engine.run(request);

  TextTable table("DSE sweep: " + std::to_string(request.models.size()) +
                  " models x " +
                  std::to_string(result.ranking.size()) + " devices");
  table.set_header({"rank", "device", "verdict", "score", "latency ms",
                    "peak W", "cost $", "cells ok/deg/fail"});
  int rank = 1;
  for (const auto& s : result.ranking) {
    std::string verdict = s.feasible
                              ? (s.pareto ? "pareto" : "feasible")
                              : "infeasible: " + std::string(s.infeasible_reason);
    table.add_row({s.feasible ? std::to_string(rank++) : "-", s.device,
                   verdict, s.feasible ? fixed(s.score, 3) : "-",
                   fixed(s.total_latency_ms, 2), fixed(s.peak_power_w, 0),
                   s.has_cost ? fixed(s.cost_usd, 0) : "?",
                   std::to_string(s.cells_ok) + "/" +
                       std::to_string(s.cells_degraded) + "/" +
                       std::to_string(s.cells_failed)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "%zu cells in %.2fs: %zu unique topologies (%zu duplicate models), "
      "%zu with full features, %zu degraded, %zu failed\n",
      result.cells.size(), result.elapsed_seconds,
      result.unique_topologies, result.duplicate_models,
      result.features_computed, result.degraded_cells, result.failed_cells);
  if (!result.feasible()) {
    std::fprintf(stderr, "no device satisfies the constraints\n");
    return 1;
  }
  return 0;
}

int cmd_rank(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string& model_name = args.positional.front();
  if (!cnn::zoo::has_model(model_name)) {
    std::fprintf(stderr, "unknown model '%s'\n", model_name.c_str());
    return 1;
  }
  const core::PerformanceEstimator estimator = load_estimator(args);
  const core::ModelFeatures features =
      core::FeatureExtractor().compute(cnn::zoo::build(model_name));
  TextTable table("predicted ranking for " + model_name);
  table.set_header({"rank", "device", "predicted IPC"});
  int rank = 1;
  for (const auto& r : core::DseExplorer(estimator).rank_devices(
           features, gpu::device_names()))
    table.add_row({std::to_string(rank++), r.device,
                   fixed(r.predicted_ipc, 4)});
  std::printf("%s", table.render().c_str());
  return 0;
}

volatile std::sig_atomic_t g_interrupted = 0;

int cmd_serve(const Args& args) {
  serve::ServeOptions options;
  if (const auto it = args.flags.find("models"); it != args.flags.end())
    options.train_models = split(it->second, ',');
  if (const auto it = args.flags.find("devices"); it != args.flags.end())
    options.train_devices = split(it->second, ',');
  options.tree_path = args.flag_or("tree", "");
  options.regressor_id = args.flag_or("regressor", "dt");
  options.registry_dir = args.flag_or("registry", "");
  options.registry_version = args.flag_or("version", "");
  options.feature_store_dir = args.flag_or("feature-store", "");
  options.registry_poll_ms =
      static_cast<int>(parse_int(args.flag_or("poll-ms", "0")));
  options.seed = seed_from(args);
  if (const auto it = args.flags.find("threads"); it != args.flags.end())
    options.n_threads = static_cast<std::size_t>(parse_int(it->second));
  options.default_deadline_ms =
      static_cast<int>(parse_int(args.flag_or("deadline-ms", "0")));
  options.dca_step_budget = static_cast<std::uint64_t>(
      parse_int(args.flag_or("step-budget", "0")));
  options.degradation = !args.has_flag("no-degrade");
  options.max_in_flight =
      static_cast<std::size_t>(parse_int(args.flag_or("max-inflight", "0")));
  options.breaker_threshold = static_cast<int>(parse_int(args.flag_or(
      "breaker-threshold", std::to_string(options.breaker_threshold))));
  options.breaker_cooldown_ms = static_cast<int>(parse_int(args.flag_or(
      "breaker-cooldown-ms",
      std::to_string(options.breaker_cooldown_ms))));
  options.dca_spill_dir = args.flag_or("dca-spill-dir", "");
  options.dca_spill_budget_bytes = static_cast<std::size_t>(
      parse_int(args.flag_or("dca-spill-budget", "0")));
  options.isolate_dca = args.has_flag("isolate-dca");
  options.dca_workers = static_cast<int>(parse_int(
      args.flag_or("dca-workers", std::to_string(options.dca_workers))));
  options.dca_worker_rss_mb = static_cast<std::size_t>(parse_int(
      args.flag_or("dca-worker-rss-mb",
                   std::to_string(options.dca_worker_rss_mb))));
  options.dca_hard_timeout_ms = static_cast<int>(parse_int(
      args.flag_or("dca-hard-timeout-ms",
                   std::to_string(options.dca_hard_timeout_ms))));
  options.dca_worker_as_mb = static_cast<std::size_t>(
      parse_int(args.flag_or("dca-worker-as-mb", "0")));
  options.dca_quarantine_dir = args.flag_or("dca-quarantine-dir", "");

  // Worker churn means broken pipes are routine; a SIGPIPE must never
  // take down the server (it surfaces as EPIPE instead).
  ignore_sigpipe();

  if (!options.registry_dir.empty())
    std::fprintf(stderr, "loading bundle from registry %s...\n",
                 options.registry_dir.c_str());
  else if (options.tree_path.empty())
    std::fprintf(stderr, "training %s estimator...\n",
                 options.regressor_id.c_str());
  serve::ServeSession session(options);

  serve::TcpServer::Options server_options;
  if (const auto it = args.flags.find("max-line-bytes");
      it != args.flags.end())
    server_options.max_line_bytes =
        static_cast<std::size_t>(parse_int(it->second));
  server_options.backlog =
      static_cast<int>(parse_int(args.flag_or("backlog", "128")));
  server_options.idle_timeout_ms =
      static_cast<int>(parse_int(args.flag_or("idle-timeout-ms", "0")));
  server_options.read_progress_timeout_ms = static_cast<int>(
      parse_int(args.flag_or("read-progress-timeout-ms", "0")));
  server_options.max_output_buffer = static_cast<std::size_t>(parse_int(
      args.flag_or("max-output-buffer",
                   std::to_string(server_options.max_output_buffer))));
  server_options.worker_threads =
      static_cast<std::size_t>(parse_int(args.flag_or("workers", "0")));
  server_options.max_pending =
      static_cast<std::size_t>(parse_int(args.flag_or("max-pending", "0")));
  server_options.port =
      static_cast<int>(parse_int(args.flag_or("port", "0")));
  if (server_options.port == 0 && !args.has_flag("port"))
    server_options.port = kDefaultPort;
  serve::TcpServer server(session, server_options);
  server.start();
  // The smoke tests and scripts parse this exact line.
  std::printf("gpuperf serve listening on port %d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, [](int) { g_interrupted = 1; });
  std::signal(SIGTERM, [](int) { g_interrupted = 1; });
  while (!server.stop_requested() && !g_interrupted)
    server.wait_for_stop(200);

  // Graceful shutdown: stop accepting, let in-flight requests finish
  // (bounded), then print the traffic summary and exit cleanly — a
  // SIGTERM'd server under load never drops a half-answered request.
  const int drain_ms =
      static_cast<int>(parse_int(args.flag_or("drain-ms", "5000")));
  if (g_interrupted) std::fprintf(stderr, "\nshutting down: draining...\n");
  if (!server.drain(drain_ms))
    std::fprintf(stderr, "drain timed out after %d ms; closing\n",
                 drain_ms);
  server.stop();
  std::fprintf(stderr, "%s", session.summary().c_str());
  return 0;
}

int cmd_client(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string host = args.flag_or("host", "127.0.0.1");
  const int port =
      static_cast<int>(parse_int(args.flag_or("port",
                                              std::to_string(kDefaultPort))));
  serve::TcpClient::Options client_options;
  client_options.io_timeout_ms =
      static_cast<int>(parse_int(args.flag_or("timeout-ms", "30000")));
  client_options.connect_timeout_ms =
      std::min(client_options.io_timeout_ms, 5000);
  serve::RetryPolicy policy;
  policy.attempts =
      static_cast<int>(parse_int(args.flag_or("retries", "3"))) + 1;
  const std::string line = join(args.positional, " ");
  std::string response;
  if (const auto it = args.flags.find("endpoints");
      it != args.flags.end()) {
    serve::FailoverClient::Options failover;
    failover.client = client_options;
    failover.retry = policy;
    failover.hedge = args.has_flag("hedge");
    failover.hedge_delay_ms =
        static_cast<int>(parse_int(args.flag_or("hedge-delay-ms", "250")));
    serve::FailoverClient client(serve::parse_endpoints(it->second),
                                 failover);
    response = client.request(line);
  } else {
    response = serve::request_with_retry(host, port, line, policy,
                                         client_options);
  }
  std::printf("%s\n", response.c_str());
  // Mirror the server's verdict in the exit code.
  return starts_with(response, "{\"ok\":true") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv);
  try {
    if (command == "models") return cmd_models();
    if (command == "devices") return cmd_devices();
    if (command == "analyze") return cmd_analyze(args);
    if (command == "ptx") return cmd_ptx(args);
    if (command == "dataset") return cmd_dataset(args);
    if (command == "train") return cmd_train(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "rank") return cmd_rank(args);
    if (command == "dse") return cmd_dse(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "client") return cmd_client(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
