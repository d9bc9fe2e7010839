// Wire gates for the `dse` verb.  perfbench's dse oracle runs the same
// SweepEngine::run as the service, so it cannot see an engine bug; these
// tests pin the verb's bytes and check them against the other verbs.
//
//  - DseWire.BodiesArePinned hashes the bodies of a fixed, seeded set of
//    dse lines (repeated models, device subsets of the device table,
//    bounds, weights, --cells, infeasible answers) against a digest
//    recorded before the sweep's cells became views of static names.
//  - The equivalence cases check, for every zoo model on every device,
//    that `predict`, `rank` and a one-model `dse --cells` print the same
//    ipc text, healthy and with DCA failing (all three degraded).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cnn/zoo.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "gpu/device_db.hpp"
#include "serve/session.hpp"

namespace gpuperf::serve {
namespace {

ServeOptions wire_options() {
  ServeOptions options;
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  options.n_threads = 2;
  return options;
}

/// One session for the healthy cases, every zoo model's features held.
ServeSession& warm_session() {
  static ServeSession session(wire_options());
  static const bool warmed =
      session.handle_line("dse all").rfind("{\"ok\":true", 0) == 0;
  EXPECT_TRUE(warmed);
  return session;
}

bool has(const std::string& body, std::string_view needle) {
  return body.find(needle) != std::string::npos;
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t hash) {
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// `body` with the number after "elapsed_ms": replaced by '*'.
std::string mask_elapsed(std::string body) {
  const std::string key = "\"elapsed_ms\":";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  const std::size_t start = at + key.size();
  const std::size_t end = body.find_first_of(",}", start);
  return body.replace(start, end - start, 1, '*');
}

/// 64 dse lines from a fixed seed.  Picks come from literal tables, so
/// the lines do not depend on how a platform prints a double.
std::vector<std::string> pinned_lines() {
  const std::vector<cnn::zoo::ZooEntry>& zoo = cnn::zoo::all_models();
  const std::vector<gpu::DeviceSpec>& table = gpu::device_database();
  const char* const kLatency[] = {"0.5", "2", "20", "1e-9"};
  const char* const kPower[] = {"120", "200", "400"};
  const char* const kCost[] = {"300", "1000", "5000"};
  const char* const kWeight[] = {"0", "0.25", "1", "2.5"};
  Rng rng(20251020);
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    std::string line = "dse ";
    const std::size_t n_models = 1 + rng.uniform_index(8);
    std::string first;
    for (std::size_t k = 0; k < n_models; ++k) {
      const std::string& name = zoo[rng.uniform_index(zoo.size())].name;
      if (k == 0) first = name;
      if (k > 0) line += ',';
      line += name;
    }
    if (i % 5 == 0) (line += ',') += first;  // a repeated model
    if (i % 6 != 5) {  // a device subset in a shuffled order
      std::vector<std::size_t> order(table.size());
      for (std::size_t d = 0; d < order.size(); ++d) order[d] = d;
      rng.shuffle(order);
      order.resize(1 + rng.uniform_index(order.size()));
      line += " --devices=";
      for (std::size_t d = 0; d < order.size(); ++d) {
        if (d > 0) line += ',';
        line += table[order[d]].name;
      }
    }
    if (i % 3 == 0)
      line += std::string(" --max-latency-ms=") + kLatency[rng.uniform_index(4)];
    if (i % 4 == 1)
      line += std::string(" --max-power-w=") + kPower[rng.uniform_index(3)];
    if (i % 7 == 2)
      line += std::string(" --max-cost-usd=") + kCost[rng.uniform_index(3)];
    if (i % 2 == 1)
      line += std::string(" --w-power=") + kWeight[rng.uniform_index(4)];
    if (i % 5 == 3)
      line += std::string(" --w-cost=") + kWeight[rng.uniform_index(4)];
    if (i % 8 == 6)
      line += std::string(" --w-latency=") + kWeight[rng.uniform_index(4)];
    if (i % 4 == 2) line += " --cells";
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(DseWire, BodiesArePinned) {
  ServeSession& session = warm_session();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  int ok = 0, infeasible = 0, with_cells = 0;
  for (const std::string& line : pinned_lines()) {
    const std::string body = session.handle_line(line);
    ok += has(body, "\"ok\":true");
    infeasible += has(body, "\"code\":\"constraint_infeasible\"");
    with_cells += has(body, "\"cells\":[");
    digest = fnv1a64(mask_elapsed(body), digest);
    digest = fnv1a64("\n", digest);
  }
  // The set covers answered, infeasible and --cells bodies.
  EXPECT_EQ(ok + infeasible, 64);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(with_cells, 0);
  EXPECT_EQ(digest, 0xb7cc1cdf225b5012ULL) << std::hex << digest;
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

/// For every zoo model on every device: `predict`, the `rank` row and the
/// cell of a one-model `dse --cells` over the whole device table print
/// the same ipc text, each saying `degraded` as expected.
void expect_verbs_agree(ServeSession& session, bool degraded) {
  std::string all_devices;
  for (const gpu::DeviceSpec& device : gpu::device_database()) {
    if (!all_devices.empty()) all_devices += ',';
    all_devices += device.name;
  }
  const std::string flag = degraded ? "\"degraded\":true" : "\"degraded\":false";
  for (const cnn::zoo::ZooEntry& entry : cnn::zoo::all_models()) {
    const std::string& model = entry.name;
    const std::string rank = session.handle_line("rank " + model);
    ASSERT_TRUE(has(rank, flag)) << rank;
    const std::string sweep = session.handle_line(
        "dse " + model + " --devices=" + all_devices + " --cells");
    ASSERT_TRUE(has(sweep, flag)) << sweep;
    const std::size_t cells = sweep.find("\"cells\":");
    ASSERT_NE(cells, std::string::npos) << sweep;
    for (const gpu::DeviceSpec& device : gpu::device_database()) {
      const std::string predict =
          session.handle_line("predict " + model + " " + device.name);
      ASSERT_TRUE(has(predict, flag)) << predict;
      const std::string ipc = ipc_text(predict, device.name);
      ASSERT_FALSE(ipc.empty()) << predict;
      EXPECT_EQ(ipc_text(rank, device.name), ipc) << model << "@" << device.name;
      EXPECT_EQ(ipc_text(sweep, device.name, cells), ipc)
          << model << "@" << device.name;
    }
  }
}

TEST(DseWire, PredictRankAndOneModelDseAgree) {
  expect_verbs_agree(warm_session(), /*degraded=*/false);
}

#ifdef GPUPERF_FAULT_INJECTION

TEST(DseWire, PredictRankAndOneModelDseAgreeWhenDegraded) {
  // A fresh session holds no features, so with every DCA pass failing
  // all three verbs answer from the static-features fallback.
  ServeSession session(wire_options());
  fault::ScopedFault fail_dca("dca.compute", fault::Spec{});
  expect_verbs_agree(session, /*degraded=*/true);
}

#endif  // GPUPERF_FAULT_INJECTION

}  // namespace
}  // namespace gpuperf::serve
