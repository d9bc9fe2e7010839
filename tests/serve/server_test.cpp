// Boots the real TCP server on an ephemeral port and drives it with the
// real client — the same path `gpuperf serve` / `gpuperf client` use.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "serve/client.hpp"

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

double json_number(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = body.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << body;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

TEST(TcpServer, BindsEphemeralPortAndAnswersPing) {
  TcpServer server(shared_session());
  server.start();
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  TcpClient client("127.0.0.1", server.port());
  const std::string pong = client.request("ping");
  EXPECT_NE(pong.find("\"ok\":true"), std::string::npos) << pong;
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TcpServer, PredictRoundTripMatchesInProcess) {
  ServeSession& session = shared_session();
  TcpServer server(session);
  server.start();
  TcpClient client("127.0.0.1", server.port());

  const std::string first = client.request("predict alexnet v100s");
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_DOUBLE_EQ(json_number(first, "ipc"),
                   session.predict("alexnet", "v100s"));

  // The repeat answers the same bytes from the warm feature cache,
  // observable in the stats counters.
  const std::uint64_t hits_before = session.feature_cache_stats().hits;
  const std::string second = client.request("predict alexnet v100s");
  EXPECT_EQ(second, first);
  const std::string stats = client.request("stats");
  EXPECT_GT(json_number(stats, "uptime_seconds"), 0.0);
  EXPECT_GT(session.feature_cache_stats().hits, hits_before);
  server.stop();
}

TEST(TcpServer, OneConnectionPipelinesManyRequests) {
  TcpServer server(shared_session());
  server.start();
  TcpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    const std::string body = client.request("predict mobilenet teslat4");
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos) << body;
  }
  server.stop();
}

TEST(TcpServer, ConcurrentClients) {
  TcpServer server(shared_session());
  server.start();
  const int port = server.port();
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      TcpClient client("127.0.0.1", port);
      for (int i = 0; i < 5; ++i) {
        const std::string body =
            client.request("predict MobileNetV2 gtx1080ti");
        if (body.find("\"ok\":true") != std::string::npos) ++ok[c];
      }
    });
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(ok[c], 5);
  server.stop();
}

TEST(TcpServer, BadRequestsGetErrorResponsesNotDisconnects) {
  TcpServer server(shared_session());
  server.start();
  TcpClient client("127.0.0.1", server.port());
  EXPECT_NE(client.request("frobnicate").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(client.request("predict nosuch gtx1080ti")
                .find("unknown model"),
            std::string::npos);
  // The connection survives errors.
  EXPECT_NE(client.request("ping").find("\"ok\":true"), std::string::npos);
  server.stop();
}

TEST(TcpServer, HighByteLineIsAnsweredAndTheConnectionStaysOpen) {
  // A first byte of 0xB7 starts an unknown verb like any other: a typed
  // error line, and the connection keeps serving.
  TcpServer server(shared_session());
  server.start();
  TcpClient client("127.0.0.1", server.port());
  const std::string bad = client.request("\xB7 ping");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("\"code\":\"invalid_request\""), std::string::npos)
      << bad;
  const std::string pong = client.request("ping");
  EXPECT_NE(pong.find("\"ok\":true"), std::string::npos) << pong;
  server.stop();
}

TEST(TcpServer, ShutdownVerbRequestsStop) {
  TcpServer server(shared_session());
  server.start();
  EXPECT_FALSE(server.stop_requested());
  TcpClient client("127.0.0.1", server.port());
  const std::string body = client.request("shutdown");
  EXPECT_NE(body.find("\"ok\":true"), std::string::npos) << body;
  EXPECT_TRUE(server.wait_for_stop(5000));
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TcpServer, WaitForStopTimesOut) {
  TcpServer server(shared_session());
  server.start();
  EXPECT_FALSE(server.wait_for_stop(50));
  server.stop();
}

TEST(TcpServer, StopIsIdempotentAndRestartable) {
  {
    TcpServer server(shared_session());
    server.start();
    server.stop();
    server.stop();  // second stop is a no-op
  }
  // A fresh server can bind again right away (SO_REUSEADDR).
  TcpServer server(shared_session());
  server.start();
  TcpClient client("127.0.0.1", server.port());
  EXPECT_NE(client.request("ping").find("\"ok\":true"), std::string::npos);
  server.stop();
}

TEST(TcpServer, ClientFailsCleanlyOnDeadPort) {
  TcpServer server(shared_session());
  server.start();
  const int port = server.port();
  server.stop();
  EXPECT_THROW(TcpClient("127.0.0.1", port), CheckError);
}

TEST(TcpServer, OversizedRequestLineGetsTypedErrorAndClose) {
  ServeSession& session = shared_session();
  const std::uint64_t rejected_before =
      session.metrics().counter_value("inputs_rejected");

  TcpServer::Options options;
  options.max_line_bytes = 128;
  TcpServer server(session, options);
  server.start();
  TcpClient client("127.0.0.1", server.port());

  const std::string huge = "predict " + std::string(4096, 'x');
  const std::string body = client.request(huge);
  EXPECT_NE(body.find("\"code\":\"input_too_large\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("128"), std::string::npos) << body;
  EXPECT_EQ(session.metrics().counter_value("inputs_rejected"),
            rejected_before + 1);

  // The connection is closed after the rejection; a fresh one works.
  EXPECT_THROW(client.request("ping"), ClientError);
  TcpClient fresh("127.0.0.1", server.port());
  EXPECT_NE(fresh.request("ping").find("\"ok\":true"), std::string::npos);
  server.stop();
}

TEST(TcpServer, UnterminatedOversizedStreamIsRejectedWithoutBuffering) {
  TcpServer::Options options;
  options.max_line_bytes = 64;
  TcpServer server(shared_session(), options);
  server.start();
  TcpClient client("127.0.0.1", server.port());
  // No newline at all: the server must reject once the buffer passes
  // the limit instead of accumulating bytes forever.  request() adds
  // the newline last, so everything before it streams unterminated —
  // by the time the terminator lands the server already answered.
  const std::string body = client.request(std::string(16384, 'a'));
  EXPECT_NE(body.find("\"code\":\"input_too_large\""), std::string::npos)
      << body;
  server.stop();
}

TEST(TcpClient, OversizedResponseLineIsATypedClientError) {
  TcpServer server(shared_session());
  server.start();
  TcpClient::Options options;
  options.max_response_bytes = 16;  // any stats response is bigger
  TcpClient client("127.0.0.1", server.port(), options);
  EXPECT_THROW(client.request("stats"), ClientError);
  server.stop();
}

}  // namespace
}  // namespace gpuperf::serve
