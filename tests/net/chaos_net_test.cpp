// Network-layer chaos: every `net.*` syscall fault is driven against a
// live TcpServer and the contract of docs/ROBUSTNESS.md is asserted —
// a fault produces a typed client error or a clean disconnect, never a
// hang, a crash, or a corrupted response, and the matching counters
// move.  Also covers the client-side failover/hedging stack, which
// must complete 100% of requests while one endpoint is down.
//
// Runs under `ctest -R chaos` next to the session-level chaos suite.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "net/socket.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

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

ServeOptions tiny_options() {
  ServeOptions options;
  options.train_models = {"alexnet", "mobilenet", "MobileNetV2", "vgg16"};
  options.n_threads = 2;
  return options;
}

ServeSession& shared_session() {
  static ServeSession session(tiny_options());
  return session;
}

/// Raw loopback connection that bypasses the net::io shim entirely, so
/// armed faults are consumed by the server side only — keeps the tests
/// deterministic about which peer a fault hits.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  int fd() const { return fd_; }

  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Read up to `n` newline-terminated responses; stops early on EOF
  /// or reset, so a clean disconnect yields fewer lines, not a hang.
  std::vector<std::string> read_lines(std::size_t n) {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[4096];
    while (lines.size() < n) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        lines.push_back(buffer.substr(0, nl));
        buffer.erase(0, nl + 1);
        continue;
      }
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(got));
    }
    return lines;
  }

 private:
  int fd_ = -1;
};

/// A port that refuses connections: bind an ephemeral listener, note
/// the port, close it.
int dead_port() {
  const int fd = net::listen_tcp("127.0.0.1", 0, 1);
  const int port = net::bound_port(fd);
  ::close(fd);
  return port;
}

std::string stats_body(int port) {
  TcpClient client("127.0.0.1", port);
  return client.request("stats");
}

// ---------------------------------------------------------------------
// Endpoint parsing and failover (no fault injection required).

TEST(Endpoints, ParsesHostPortList) {
  const std::vector<Endpoint> eps =
      parse_endpoints("127.0.0.1:7070, 10.0.0.2:8080");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].host, "127.0.0.1");
  EXPECT_EQ(eps[0].port, 7070);
  EXPECT_EQ(eps[1].host, "10.0.0.2");
  EXPECT_EQ(eps[1].port, 8080);
}

TEST(Endpoints, RejectsMalformedEntries) {
  EXPECT_THROW(parse_endpoints(""), CheckError);
  EXPECT_THROW(parse_endpoints("no-port"), CheckError);
  EXPECT_THROW(parse_endpoints("host:0"), CheckError);
  EXPECT_THROW(parse_endpoints("host:99999"), CheckError);
  EXPECT_THROW(parse_endpoints("host:abc"), CheckError);
}

TEST(Failover, CompletesEveryRequestWithOneEndpointDown) {
  TcpServer server(shared_session());
  server.start();
  const int down = dead_port();

  FailoverClient::Options options;
  options.retry.base_backoff_ms = 10;
  options.endpoint_failure_threshold = 2;
  options.endpoint_cooldown_ms = 60000;  // stays open for the test
  FailoverClient client(
      parse_endpoints("127.0.0.1:" + std::to_string(down) + ",127.0.0.1:" +
                      std::to_string(server.port())),
      options);

  // 100% completion is the acceptance bar: the dead endpoint costs at
  // most two failed connects before its breaker opens and every later
  // request goes straight to the live one.
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(has(client.request("ping"), "\"ok\":true")) << i;

  const FailoverClient::EndpointHealth down_health = client.health(0);
  EXPECT_EQ(down_health.failures, 2u);
  EXPECT_TRUE(down_health.open);
  EXPECT_EQ(client.health(1).failures, 0u);
  server.stop();
}

TEST(Failover, HedgedRequestWinsOnTheHealthyEndpoint) {
  TcpServer server(shared_session());
  server.start();
  const int down = dead_port();

  FailoverClient::Options options;
  options.retry.base_backoff_ms = 10;
  options.hedge = true;
  options.hedge_delay_ms = 100;
  FailoverClient client(
      parse_endpoints("127.0.0.1:" + std::to_string(down) + ",127.0.0.1:" +
                      std::to_string(server.port())),
      options);

  const auto start = Clock::now();
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(has(client.request("ping"), "\"ok\":true")) << i;
  // A refused primary wakes the hedge immediately — five requests must
  // not cost five full hedge delays plus backoff ceilings.
  EXPECT_LT(ms_since(start), 5000);
  server.stop();
}

#ifdef GPUPERF_FAULT_INJECTION

// ---------------------------------------------------------------------
// Injected syscall faults against a live server.

class ChaosNet : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(ChaosNet, ReadResetClosesTheConnectionNotTheServer) {
  TcpServer server(shared_session());
  server.start();
  RawConn victim(server.port());
  fault::arm_from_spec("net.read=throw*1");
  victim.send_bytes("ping\n");
  // The injected ECONNRESET kills this connection cleanly...
  EXPECT_TRUE(victim.read_lines(1).empty());
  // ...and the server keeps serving new ones.
  EXPECT_TRUE(has(stats_body(server.port()), "\"ok\":true"));
  server.stop();
}

TEST_F(ChaosNet, WriteEpipeClosesTheConnectionNotTheServer) {
  TcpServer server(shared_session());
  server.start();
  RawConn victim(server.port());
  fault::arm_from_spec("net.write=throw*1");
  victim.send_bytes("ping\n");
  EXPECT_TRUE(victim.read_lines(1).empty());
  EXPECT_TRUE(has(stats_body(server.port()), "\"ok\":true"));
  server.stop();
}

TEST_F(ChaosNet, EintrStormOnReadIsRetriedTransparently) {
  TcpServer server(shared_session());
  server.start();
  RawConn conn(server.port());
  fault::arm_from_spec("net.read=timeout*4");  // four EINTRs, then real
  conn.send_bytes("ping\n");
  const std::vector<std::string> lines = conn.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has(lines[0], "\"ok\":true")) << lines[0];
  EXPECT_EQ(fault::hits("net.read"), 4u);
  server.stop();
}

TEST_F(ChaosNet, ShortReadsAndWritesNeverCorruptResponses) {
  TcpServer server(shared_session());
  server.start();
  RawConn conn(server.port());
  // Every transfer limps along one byte at a time for a while; the
  // request must still parse and the response arrive byte-exact.
  fault::arm_from_spec("net.read=corrupt*8;net.write=corrupt*8");
  conn.send_bytes("ping\nping\n");
  const std::vector<std::string> lines = conn.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(has(line, "\"ok\":true")) << line;
    EXPECT_TRUE(has(line, "\"endpoint\":\"ping\"")) << line;
  }
  EXPECT_GE(fault::hits("net.read"), 1u);
  EXPECT_GE(fault::hits("net.write"), 1u);
  server.stop();
}

TEST_F(ChaosNet, AcceptEmfileSacrificesTheConnectionAndRecovers) {
  TcpServer server(shared_session());
  server.start();
  fault::arm_from_spec("net.accept=throw*1");  // forced EMFILE
  {
    // The EMFILE victim is accepted on the spare fd and closed
    // politely — a clean disconnect, not a listener wedge.
    RawConn victim(server.port());
    victim.send_bytes("ping\n");
    EXPECT_TRUE(victim.read_lines(1).empty());
  }
  const std::string stats = stats_body(server.port());
  EXPECT_TRUE(has(stats, "\"ok\":true"));
  EXPECT_TRUE(has(stats, "\"accept_emfile\":1")) << stats;
  server.stop();
}

TEST_F(ChaosNet, ConnectFaultsAreTypedAndExhaustedByRetries) {
  TcpServer server(shared_session());
  server.start();
  fault::arm_from_spec("net.connect=throw*2");

  FailoverClient::Options options;
  options.retry.attempts = 4;
  options.retry.base_backoff_ms = 10;
  FailoverClient client(
      parse_endpoints("127.0.0.1:" + std::to_string(server.port())),
      options);
  // Two injected ECONNREFUSEDs are eaten by the retry budget.
  EXPECT_TRUE(has(client.request("ping"), "\"ok\":true"));
  EXPECT_EQ(fault::hits("net.connect"), 2u);
  server.stop();
}

TEST_F(ChaosNet, SlowLorisDripFeederIsKilledDespiteActivity) {
  TcpServer::Options options;
  options.read_progress_timeout_ms = 150;
  TcpServer server(shared_session(), options);
  server.start();

  RawConn loris(server.port());
  const auto start = Clock::now();
  bool killed = false;
  // Drip one byte of a never-completing request every 40 ms: each drip
  // is fresh activity (which defeats idle reaping), but none of it
  // completes a request, so the read-progress deadline must fire.
  for (int i = 0; i < 200 && !killed; ++i) {
    if (::send(loris.fd(), "p", 1, MSG_NOSIGNAL) < 0) {
      killed = true;
      break;
    }
    char c;
    const ssize_t r = ::recv(loris.fd(), &c, 1, MSG_DONTWAIT);
    if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_TRUE(killed);
  EXPECT_LT(ms_since(start), 5000);

  const std::string stats = stats_body(server.port());
  EXPECT_TRUE(has(stats, "\"slow_loris_closed\":1")) << stats;
  server.stop();
}

TEST_F(ChaosNet, BackpressuredConnectionIsBoundedAndClosed) {
  TcpServer::Options options;
  options.max_output_buffer = 64;  // any real response overflows this
  TcpServer server(shared_session(), options);
  server.start();

  RawConn victim(server.port());
  // Force one spurious EAGAIN on the response write: the output buffer
  // is left holding the whole (oversized) response, which must trip
  // the bound instead of growing without limit.
  fault::arm_from_spec("net.write=delay:1*1");
  victim.send_bytes("stats\n");
  EXPECT_TRUE(victim.read_lines(1).empty());

  const std::string stats = stats_body(server.port());
  EXPECT_TRUE(has(stats, "\"backpressure_closed\":1")) << stats;
  server.stop();
}

TEST_F(ChaosNet, SlowReadTripsTheLoopWatchdogButAnswers) {
  TcpServer server(shared_session());
  server.start();
  RawConn conn(server.port());
  // The loop thread stalls 1.2 s inside the read syscall (past the 1 s
  // watchdog threshold), then the request proceeds normally.
  fault::arm_from_spec("net.read=delay:1200*1");
  conn.send_bytes("ping\n");
  const std::vector<std::string> lines = conn.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has(lines[0], "\"ok\":true")) << lines[0];

  TcpClient client("127.0.0.1", server.port());
  EXPECT_TRUE(has(client.request("stats"), "\"loop_stalls\":1"));
  // The heartbeat recovered with the loop, so readiness is back.
  EXPECT_TRUE(has(client.request("ready"), "\"ready\":true"));
  server.stop();
}

#endif  // GPUPERF_FAULT_INJECTION

// ---------------------------------------------------------------------
// health/ready.

TEST(HealthReady, AnswersOverTheLineProtocol) {
  TcpServer server(shared_session());
  server.start();
  TcpClient client("127.0.0.1", server.port());
  const std::string health = client.request("health");
  EXPECT_TRUE(has(health, "\"status\":\"ok\"")) << health;
  EXPECT_TRUE(has(health, "\"uptime_ms\":")) << health;
  const std::string ready = client.request("ready");
  EXPECT_TRUE(has(ready, "\"ready\":true")) << ready;
  EXPECT_TRUE(has(ready, "\"reasons\":[]")) << ready;
  server.stop();
}

TEST(HealthReady, StatsExposeTheChaosCounters) {
  TcpServer server(shared_session());
  server.start();
  const std::string stats = stats_body(server.port());
  for (const char* counter :
       {"\"slow_loris_closed\":", "\"backpressure_closed\":",
        "\"loop_stalls\":", "\"spare_fd_unavailable\":",
        "\"breaker_open\":", "\"breaker_half_open\":",
        "\"breaker_fast_fail\":"}) {
    EXPECT_TRUE(has(stats, counter)) << counter << " missing in " << stats;
  }
  server.stop();
}

}  // namespace
}  // namespace gpuperf::serve
