// EventLoop's resume path for a handler that answers requests itself:
// input left behind by its per-call parse bound, and a read paused at
// the input bound, get no dispatch completion to resume them, so the
// loop must come back on its own.
#include "net/event_loop.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "net/socket.hpp"

namespace gpuperf::net {
namespace {

/// Answers every complete line with "ok\n" on the loop thread, at most
/// `per_call` lines per on_data call; dispatches nothing.
class InlineLines : public EventLoop::Handler {
 public:
  explicit InlineLines(std::size_t per_call) : per_call_(per_call) {}
  void attach(EventLoop& loop) { loop_ = &loop; }

  bool on_data(ConnId id, Buffer& in) override {
    for (std::size_t n = 0; n < per_call_; ++n) {
      const std::size_t nl = in.view().find('\n');
      if (nl == std::string_view::npos) break;
      in.consume(nl + 1);
      loop_->enqueue_output(id, "ok\n");
    }
    return true;
  }
  void on_close(ConnId) override {}

 private:
  std::size_t per_call_;
  EventLoop* loop_ = nullptr;
};

/// A loop whose client queued all of `bytes` before the loop started:
/// the first read finds every byte and no later edge arrives, so only
/// the loop's own resume can get past what that read left.
class QueuedInput {
 public:
  QueuedInput(std::size_t per_call, EventLoop::Options options,
              const std::string& bytes)
      : handler_(per_call) {
    const int listen_fd = listen_tcp("127.0.0.1", 0, 16);
    const int port = bound_port(listen_fd);
    loop_ = std::make_unique<EventLoop>(listen_fd, handler_, options);
    handler_.attach(*loop_);
    client_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(client_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    timeval tv{5, 0};
    ::setsockopt(client_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    EXPECT_EQ(::send(client_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    runner_ = std::thread([this] { loop_->run(); });
  }
  ~QueuedInput() {
    loop_->stop();
    runner_.join();
    ::close(client_);
  }

  /// Answers received before `n` arrived or the 5 s receive timeout.
  std::size_t answers(std::size_t n) {
    std::size_t seen = 0;
    char chunk[4096];
    while (seen < n) {
      const ssize_t got = ::recv(client_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      for (ssize_t i = 0; i < got; ++i) seen += chunk[i] == '\n';
    }
    return seen;
  }

 private:
  InlineLines handler_;
  std::unique_ptr<EventLoop> loop_;
  int client_ = -1;
  std::thread runner_;
};

std::string repeated(const std::string& line, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += line;
  return out;
}

TEST(EventLoopResume, InputLeftByTheParseBoundIsParsedOnALaterTurn) {
  QueuedInput run(/*per_call=*/4, {}, repeated("x\n", 100));
  EXPECT_EQ(run.answers(100), 100u);
}

TEST(EventLoopResume, ReadPausedAtTheInputBoundResumes) {
  // A 16 KiB bound and 1 KiB lines: the first read stops at the bound
  // with 16 whole lines, the handler answers them all and leaves no
  // input, and the other 24 lines wait unread in the socket.
  EventLoop::Options options;
  options.max_input_buffer = 16u << 10;
  QueuedInput run(/*per_call=*/1000, options,
                  repeated(std::string(1023, 'x') + "\n", 40));
  EXPECT_EQ(run.answers(40), 40u);
}

}  // namespace
}  // namespace gpuperf::net
