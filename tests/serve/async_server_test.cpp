// Event-loop behaviors of the async serving core: idle reaping,
// pipelined ordering, loop observability, loop-level shedding, and
// drain under load.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace gpuperf::serve
