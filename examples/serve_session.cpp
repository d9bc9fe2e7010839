// The estimation service as a library: ServeSession is everything
// `gpuperf serve` does minus the sockets — a resident trained
// estimator with a DCA feature cache and metrics.
// Useful when the consumer is another C++ loop (a NAS search, a DSE
// sweep) rather than a remote client.
//
//   ./serve_session [model]
//
// Defaults to MobileNetV2.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cnn/zoo.hpp"
#include "gpu/device_db.hpp"
#include "serve/session.hpp"

int main(int argc, char** argv) {
  using namespace gpuperf;
  using Clock = std::chrono::steady_clock;

  const std::string model = argc > 1 ? argv[1] : "MobileNetV2";
  if (!cnn::zoo::has_model(model)) {
    std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
    return 1;
  }

  // Train once at startup, exactly like `gpuperf serve`.  The small
  // subset keeps the demo quick; drop train_models for the full zoo.
  serve::ServeOptions options;
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2",
                          "vgg16", "resnet50v2"};
  std::printf("training %s estimator...\n", options.regressor_id.c_str());
  serve::ServeSession session(options);

  // First predict pays for dynamic code analysis; a repeat, on any
  // device, is a feature-cache hit plus one tree walk.
  const auto timed = [&](const char* label, const std::string& device) {
    const auto t0 = Clock::now();
    const double ipc = session.predict(model, device);
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - t0)
                          .count();
    std::printf("  %-28s %-12s ipc %.4f   (%.3f ms)\n", label,
                device.c_str(), ipc, ms);
  };
  std::printf("\npredictions for %s:\n", model.c_str());
  timed("cold (runs DCA)", "gtx1080ti");
  timed("warm (feature-cache hit)", "gtx1080ti");
  timed("warm, another device", "v100s");

  // Concurrent callers each predict on their own thread; the
  // single-flight feature cache runs at most one DCA pass per model.
  std::vector<std::thread> clients;
  for (const auto& device : gpu::device_database())
    clients.emplace_back(
        [&, name = device.name] { session.predict(model, name); });
  for (auto& client : clients) client.join();
  std::printf("\nranked via the line protocol:\n%s\n\n",
              session.handle_line("rank " + model).c_str());

  // The same counters the `stats` endpoint serves.
  std::printf("%s", session.summary().c_str());
  return 0;
}
