// Event-loop behaviors of the async serving core: idle reaping,
// pipelined ordering, loop observability, loop-level shedding, drain
// under load, and the requests the loop answers itself.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cnn/zoo.hpp"
#include "common/fault.hpp"
#include "gpu/device_db.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace gpuperf::serve {
namespace {

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

/// Raw loopback connection (blocking, bounded recv) for pipelined
/// writes the TcpClient's one-at-a-time API can't express.
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

  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Read `n` newline-terminated responses, in arrival order.
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

  /// Read until `n` newlines arrived; returns how many did.
  std::uint64_t count_lines(std::uint64_t n) {
    std::uint64_t seen = 0;
    char chunk[16384];
    while (seen < n) {
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      for (ssize_t i = 0; i < got; ++i) seen += chunk[i] == '\n';
    }
    return seen;
  }

  /// True when a response byte is waiting, or arrives within
  /// `timeout_ms`.
  bool readable(int timeout_ms = 0) const {
    pollfd p{fd_, POLLIN, 0};
    return ::poll(&p, 1, timeout_ms) > 0;
  }

 private:
  int fd_ = -1;
};

TEST(AsyncServer, IdleConnectionsAreReapedAndCounted) {
  ServeSession& session = shared_session();
  TcpServer::Options options;
  options.idle_timeout_ms = 100;
  TcpServer server(session, options);
  server.start();

  TcpClient idle_client("127.0.0.1", server.port());
  ASSERT_NE(idle_client.request("ping").find("\"ok\":true"),
            std::string::npos);
  // Go quiet past the timeout; the loop reaps the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_THROW(idle_client.request("ping"), ClientError);

  // The reap is observable through the stats verb (fresh connection).
  TcpClient stats_client("127.0.0.1", server.port());
  const std::string stats = stats_client.request("stats");
  EXPECT_NE(stats.find("\"connections_idle_reaped\":"),
            std::string::npos);
  EXPECT_GE(session.metrics().counter_value("connections_idle_reaped"),
            1u);
  server.stop();
}

TEST(AsyncServer, ActiveConnectionOutlivesIdleTimeout) {
  TcpServer::Options options;
  options.idle_timeout_ms = 150;
  TcpServer server(shared_session(), options);
  server.start();
  TcpClient client("127.0.0.1", server.port());
  // Steady traffic with gaps under the timeout: never reaped.
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(client.request("ping").find("\"ok\":true"),
              std::string::npos);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
}

TEST(AsyncServer, PipelinedBurstIsAnsweredInOrder) {
  TcpServer server(shared_session());
  server.start();
  RawConn conn(server.port());
  // 100 pipelined requests in one write, alternating good and bad, so
  // order is observable in the response bodies.
  std::string burst;
  for (int i = 0; i < 50; ++i) burst += "ping\nfrobnicate\n";
  conn.send_bytes(burst);
  const std::vector<std::string> lines = conn.read_lines(100);
  ASSERT_EQ(lines.size(), 100u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % 2 == 0)
      EXPECT_NE(lines[i].find("\"endpoint\":\"ping\""), std::string::npos)
          << "line " << i << ": " << lines[i];
    else
      EXPECT_NE(lines[i].find("unknown command"), std::string::npos)
          << "line " << i << ": " << lines[i];
  }
  server.stop();
}

TEST(AsyncServer, StatsExposeEventLoopCounters) {
  ServeSession& session = shared_session();
  TcpServer server(session);
  server.start();
  const std::uint64_t lines_before =
      session.metrics().counter_value("requests_line");
  TcpClient client("127.0.0.1", server.port());
  ASSERT_NE(client.request("ping").find("\"ok\":true"),
            std::string::npos);
  const std::string stats = client.request("stats");
  for (const char* counter :
       {"\"connections_accepted\":", "\"connections_active\":",
        "\"epoll_wakeups\":", "\"bytes_in\":", "\"bytes_out\":",
        "\"requests_line\":"}) {
    EXPECT_NE(stats.find(counter), std::string::npos)
        << counter << " missing in " << stats;
  }
  EXPECT_GE(session.metrics().counter_value("connections_accepted"), 1u);
  EXPECT_GE(session.metrics().counter_value("bytes_in"), 5u);
  EXPECT_GE(session.metrics().counter_value("bytes_out"), 5u);
  // One count per request line: the ping and the stats call.
  EXPECT_EQ(session.metrics().counter_value("requests_line"),
            lines_before + 2);
  server.stop();
}

TEST(AsyncServer, BacklogAndWorkerOptionsServeTraffic) {
  TcpServer::Options options;
  options.backlog = 4;
  options.worker_threads = 1;
  TcpServer server(shared_session(), options);
  server.start();
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&] {
      TcpClient client("127.0.0.1", server.port());
      if (client.request("ping").find("\"ok\":true") != std::string::npos)
        ok.fetch_add(1);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kClients);
  server.stop();
}

TEST(AsyncServer, MaxPendingKeepsEveryResponseTyped) {
  ServeSession& session = shared_session();
  session.reset_caches();
  TcpServer::Options options;
  options.max_pending = 1;
  options.worker_threads = 2;
  TcpServer server(session, options);
  server.start();
  // Hammer with concurrent heavy requests: each answer must be either a
  // real prediction or a typed `overloaded` shed — never a hang or a
  // drop.  Cheap verbs always pass.
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> answered{0};
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&] {
      TcpClient client("127.0.0.1", server.port());
      for (int i = 0; i < 4; ++i) {
        const std::string body = client.request("predict vgg16 v100s");
        if (body.find("\"ok\":true") != std::string::npos ||
            body.find("\"code\":\"overloaded\"") != std::string::npos)
          answered.fetch_add(1);
      }
      EXPECT_NE(client.request("ping").find("\"ok\":true"),
                std::string::npos);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(answered.load(), kClients * 4);
  server.stop();
}

TEST(AsyncServer, DrainUnderLoadAnswersInFlightRequests) {
  ServeSession& session = shared_session();
  session.reset_caches();
  TcpServer server(session);
  server.start();
  const int port = server.port();

  // Clients push pipelined predicts while the server drains; every
  // request read before the half-close still gets its response.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> responses{0};
  std::atomic<int> clean{0};
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&] {
      try {
        TcpClient client("127.0.0.1", port);
        for (int i = 0; i < 50; ++i) {
          const std::string body =
              client.request("predict MobileNetV2 gtx1080ti");
          if (body.find("\"endpoint\":\"predict\"") != std::string::npos)
            responses.fetch_add(1);
        }
        clean.fetch_add(1);
      } catch (const ClientError&) {
        // The drain half-closed this connection mid-conversation —
        // allowed; already-read requests were still answered.
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(server.drain(10000));
  for (auto& thread : threads) thread.join();
  EXPECT_GT(responses.load(), 0);
  server.stop();

  // Post-drain: the listener is gone, so new connections are refused.
  EXPECT_THROW(TcpClient("127.0.0.1", port), ClientError);
}

TEST(AsyncServer, RestartAfterStopServesAgain) {
  TcpServer server(shared_session());
  server.start();
  const int first_port = server.port();
  {
    TcpClient client("127.0.0.1", first_port);
    EXPECT_NE(client.request("ping").find("\"ok\":true"),
              std::string::npos);
  }
  server.stop();
  server.start();
  {
    TcpClient client("127.0.0.1", server.port());
    EXPECT_NE(client.request("ping").find("\"ok\":true"),
              std::string::npos);
  }
  server.stop();
}

std::string repeated(const std::string& line, std::size_t n) {
  std::string out;
  out.reserve(line.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += line;
  return out;
}

constexpr const char* kPingBody = "{\"ok\":true,\"endpoint\":\"ping\"}";

TEST(AsyncServer, PingBurstsPastTheBatchAndInputBoundsAreAllAnswered) {
  // The loop answers pings itself, at most 64 per turn, so no dispatch
  // completes to resume a connection: the loop must come back for the
  // rest of the burst, and for input left unread at the input bound.
  // A 4 KiB line limit puts that bound at its 64 KiB floor, under the
  // 20,000-ping (100,000-byte) write, and under 40 lines padded to
  // 2 KiB, fewer than one batch.
  TcpServer::Options options;
  options.max_line_bytes = 4096;
  TcpServer server(shared_session(), options);
  server.start();
  const std::string padded_ping = "ping" + std::string(2043, ' ') + "\n";
  const std::pair<std::string, std::size_t> bursts[] = {
      {"ping\n", 100}, {"ping\n", 20000}, {padded_ping, 40}};
  for (const auto& [line, n] : bursts) {
    RawConn conn(server.port());
    conn.send_bytes(repeated(line, n));
    const std::vector<std::string> lines = conn.read_lines(n);
    ASSERT_EQ(lines.size(), n) << line.size() << "-byte lines";
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(lines[i], kPingBody) << "line " << i << " of " << n;
  }
  server.stop();
}

TEST(AsyncServer, MixedPipelineKeepsRequestOrder) {
  ServeSession& session = shared_session();
  session.reset_caches();
  session.handle_line("rank alexnet");  // alexnet's features are held
  TcpServer server(session);
  server.start();
  const std::uint64_t inline_before =
      session.metrics().counter_value("requests_inline");
  // The loop answers the first request; vgg16 is cold, so it and
  // everything behind it go to a worker as one batch.
  const std::vector<std::string> requests = {
      "predict alexnet v100s", "predict vgg16 gtx1080ti", "ping",
      "rank alexnet", "health"};
  std::string burst;
  for (const std::string& request : requests) burst += request + "\n";
  RawConn conn(server.port());
  conn.send_bytes(burst);
  const std::vector<std::string> lines = conn.read_lines(requests.size());
  ASSERT_EQ(lines.size(), requests.size());
  for (std::size_t i = 0; i + 1 < requests.size(); ++i)
    EXPECT_EQ(lines[i], session.handle_line(requests[i])) << requests[i];
  // health carries its uptime, so only its shape can match.
  EXPECT_EQ(lines.back().rfind("{\"ok\":true,\"endpoint\":\"health\"", 0),
            0u)
      << lines.back();
  EXPECT_EQ(session.metrics().counter_value("requests_inline"),
            inline_before + 1);
  server.stop();
}

TEST(AsyncServer, InlineAnswersEqualDispatchedAndInProcessAnswers) {
  ServeSession& session = shared_session();
  std::vector<std::string> predicts, ranks;
  for (const cnn::zoo::ZooEntry& entry : cnn::zoo::all_models()) {
    session.handle_line("rank " + entry.name);  // hold its features
    for (const std::string& device : gpu::device_names())
      predicts.push_back("predict " + entry.name + " " + device);
    ranks.push_back("rank " + entry.name);
  }
  // Held but malformed: the same typed error on every path.
  predicts.push_back("predict alexnet v100s --deadline-ms=abc");
  predicts.push_back("predict alexnet no-such-gpu");
  ranks.push_back("rank alexnet --deadline-ms=abc");

  TcpServer server(session);
  server.start();
  RawConn conn(server.port());
  MetricsRegistry& metrics = session.metrics();
  const auto breaker_events = [&] {
    return metrics.counter_value("breaker_open") +
           metrics.counter_value("breaker_half_open") +
           metrics.counter_value("breaker_fast_fail");
  };
  const std::uint64_t breaker_before = breaker_events();
  const auto write_all = [&](const std::vector<std::string>& requests) {
    std::string burst;
    for (const std::string& request : requests) burst += request + "\n";
    conn.send_bytes(burst);
    return conn.read_lines(requests.size());
  };

  // Loop-answered: every held predict in one write.
  const std::uint64_t hits_before = session.feature_cache_stats().hits;
  const std::uint64_t inline_before = metrics.counter_value("requests_inline");
  const std::vector<std::string> inline_lines = write_all(predicts);
  ASSERT_EQ(inline_lines.size(), predicts.size());
  EXPECT_EQ(session.feature_cache_stats().hits - hits_before,
            predicts.size());
  EXPECT_EQ(metrics.counter_value("requests_inline") - inline_before,
            predicts.size());

  // Dispatched: a leading `health` sends its whole batch (at most 64
  // lines) to a worker.  A rank is always dispatched.
  std::vector<std::string> dispatched_lines;
  const std::uint64_t inline_mid = metrics.counter_value("requests_inline");
  for (std::size_t at = 0; at < predicts.size(); at += 63) {
    const std::size_t end = std::min(predicts.size(), at + 63);
    std::string batch = "health\n";
    for (std::size_t i = at; i < end; ++i) batch += predicts[i] + "\n";
    conn.send_bytes(batch);
    const std::vector<std::string> lines = conn.read_lines(end - at + 1);
    ASSERT_EQ(lines.size(), end - at + 1);
    dispatched_lines.insert(dispatched_lines.end(), lines.begin() + 1,
                            lines.end());
  }
  const std::vector<std::string> rank_lines = write_all(ranks);
  ASSERT_EQ(rank_lines.size(), ranks.size());
  EXPECT_EQ(metrics.counter_value("requests_inline"), inline_mid);

  for (std::size_t i = 0; i < predicts.size(); ++i) {
    const std::string expected = session.handle_line(predicts[i]);
    EXPECT_EQ(inline_lines[i], expected) << predicts[i];
    EXPECT_EQ(dispatched_lines[i], expected) << predicts[i];
  }
  for (std::size_t i = 0; i < ranks.size(); ++i)
    EXPECT_EQ(rank_lines[i], session.handle_line(ranks[i])) << ranks[i];
  for (const std::string& line : {inline_lines.end()[-2], rank_lines.back()})
    EXPECT_NE(line.find("\"code\":\"invalid_request\""), std::string::npos)
        << line;
  EXPECT_NE(inline_lines.back().find("unknown device"), std::string::npos);
  EXPECT_EQ(breaker_events(), breaker_before);
  server.stop();
}

TEST(AsyncServer, LongPipelinedBurstDoesNotStarveAnotherConnection) {
  TcpServer server(shared_session());
  server.start();
  RawConn flood(server.port());
  constexpr std::uint64_t kChunkLines = 4096;
  constexpr std::uint64_t kWindowLines = 16 * kChunkLines;
  constexpr std::uint64_t kMaxLines = 4'000'000;
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::thread writer([&] {
    const std::string chunk = repeated("ping\n", kChunkLines);
    // Bounded in case the other connection is never answered; at most
    // kWindowLines unanswered, so the burst is long but not huge.
    while (!stop.load() && sent.load() < kMaxLines) {
      if (sent.load() - received.load() >= kWindowLines) {
        std::this_thread::yield();
        continue;
      }
      sent.fetch_add(kChunkLines);
      flood.send_bytes(chunk);
    }
  });
  // Drain the flood's answers as they come, so the server never sheds
  // it for backpressure.
  std::thread reader([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((!writer_done.load() || received.load() < sent.load()) &&
           std::chrono::steady_clock::now() < give_up) {
      if (!flood.readable(50)) continue;
      const std::uint64_t got = flood.count_lines(1);
      if (got == 0) break;
      received.fetch_add(got);
    }
  });
  while (received.load() == 0 && sent.load() < kMaxLines)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The flood is still being answered when this ping gets its answer.
  RawConn other(server.port());
  other.send_bytes("ping\n");
  const std::vector<std::string> answer = other.read_lines(1);
  EXPECT_LT(sent.load(), kMaxLines);
  stop.store(true);
  writer.join();
  writer_done.store(true);
  reader.join();
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer[0], kPingBody);
  EXPECT_EQ(received.load(), sent.load());
  server.stop();
}

#ifdef GPUPERF_FAULT_INJECTION
TEST(AsyncServer, LoopAnswersHeldRequestsWhileAWorkerRunsDca) {
  ServeSession& session = shared_session();
  session.reset_caches();
  session.handle_line("predict alexnet v100s");  // alexnet's features are held
  TcpServer server(session);
  server.start();
  // Stall the next DCA pass past the loop's 1 s stall threshold: had
  // the loop run it, loop_stalls would count it and nothing on the
  // loop would be answered until it finished.
  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.delay_ms = 1500;
  slow.remaining = 1;
  fault::ScopedFault stall("dca.compute", slow);

  RawConn cold(server.port());
  cold.send_bytes("predict vgg16 v100s\n");
  RawConn warm(server.port());
  warm.send_bytes("ping\npredict alexnet v100s\n");
  const std::vector<std::string> answers = warm.read_lines(2);
  EXPECT_FALSE(cold.readable()) << "the cold predict finished first";
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], kPingBody);
  EXPECT_EQ(answers[1], session.handle_line("predict alexnet v100s"));

  const std::vector<std::string> cold_answer = cold.read_lines(1);
  ASSERT_EQ(cold_answer.size(), 1u);
  EXPECT_EQ(fault::hits("dca.compute"), 1u);
  EXPECT_EQ(cold_answer[0], session.handle_line("predict vgg16 v100s"));
  session.stats_json();  // syncs the loop counters
  EXPECT_EQ(session.metrics().counter_value("loop_stalls"), 0u);
  server.stop();
}

TEST(AsyncServer, MaxPendingShedsOnlyWhatWouldBeDispatched) {
  ServeSession& session = shared_session();
  session.reset_caches();
  session.handle_line("predict alexnet v100s");  // alexnet's features are held
  TcpServer::Options options;
  options.max_pending = 1;
  TcpServer server(session, options);
  server.start();
  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.delay_ms = 1500;
  slow.remaining = 1;
  fault::ScopedFault stall("dca.compute", slow);

  // A cold predict fills the one pending slot: wait until its DCA runs.
  RawConn cold(server.port());
  cold.send_bytes("predict vgg16 v100s\n");
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault::hits("dca.compute") == 0 &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(fault::hits("dca.compute"), 1u);

  // The loop answers a held predict itself, so it is never shed...
  const std::uint64_t shed_before =
      session.metrics().counter_value("shed_overloaded");
  RawConn warm(server.port());
  warm.send_bytes("predict alexnet v100s\n");
  const std::vector<std::string> held = warm.read_lines(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_NE(held[0].find("\"ipc\""), std::string::npos) << held[0];
  EXPECT_EQ(held[0], session.handle_line("predict alexnet v100s"));
  EXPECT_FALSE(cold.readable()) << "the cold predict finished first";

  // ...while another cold predict, which would wait for a worker, is.
  RawConn second(server.port());
  second.send_bytes("predict MobileNetV2 v100s\n");
  const std::vector<std::string> shed = second.read_lines(1);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_NE(shed[0].find("\"code\":\"overloaded\""), std::string::npos)
      << shed[0];
  EXPECT_EQ(session.metrics().counter_value("shed_overloaded"),
            shed_before + 1);

  const std::vector<std::string> cold_answer = cold.read_lines(1);
  ASSERT_EQ(cold_answer.size(), 1u);
  EXPECT_EQ(cold_answer[0], session.handle_line("predict vgg16 v100s"));
  server.stop();
}
#endif

}  // namespace
}  // namespace gpuperf::serve
