// Multi-threaded load generator for the serving core (docs/SERVER.md).
// Drives many thousands of concurrent loopback connections against a
// gpuperf server — an external one (--host/--port) or an in-process
// one (--self) — over the line protocol, and reports throughput and
// latency percentiles as loadgen-native JSON that bench/summarize.py
// folds into the standard BENCH shape.
//
//   loadgen --self --connections 10000 --duration-s 5
//
// Closed-loop by default: every connection keeps --pipeline requests
// in flight and issues the next request as each response lands.
// --rps switches to open-loop arrival: requests are issued on a fixed
// schedule across the connection pool regardless of completions, so
// queueing delay shows up in the latency tail instead of hiding in a
// lower offered rate.
//
// Each worker thread owns an epoll set and an equal share of the
// connections; connects are issued in bounded waves so a 10k ramp
// doesn't overflow the listen backlog.  Latency is measured per
// request (send timestamp FIFO per connection — responses are FIFO)
// into the serve LatencyHistogram, warmup excluded.  With --self the
// report also carries the server's own counters, read through `stats`
// after the run and before the drain: loop_stalls, requests_line and
// requests_inline (the requests the event loop answered itself).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace serve = gpuperf::serve;

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  bool self = false;        // spin up an in-process server
  int connections = 10000;  // total, split across threads
  int threads = 4;
  double warmup_s = 1.0;
  double duration_s = 5.0;
  int pipeline = 1;              // closed-loop in-flight per connection
  double rps = 0.0;              // >0: open-loop offered rate (total)
  std::string verb = "ping";     // ping | predict
  std::string out;               // JSON report path ("" = stdout only)
  /// Fault spec armed in-process before the run (common/fault.hpp
  /// grammar, e.g. "net.read=throw*100;net.write=throw*100").  Only
  /// the --self server shares the process, so faults only bite there.
  std::string fault_spec;
};

/// The --self server's counters after the run.
struct ServerCounters {
  std::uint64_t loop_stalls = 0;
  std::uint64_t requests_line = 0;
  std::uint64_t requests_inline = 0;
};

struct RunResult {
  std::uint64_t connected = 0;  // connections that completed connect()
  std::uint64_t requests = 0;   // responses completed in the window
  std::uint64_t errors = 0;     // failed connects, and response lines
                                // without "ok":true (overloaded,
                                // invalid_request, ...)
  std::uint64_t resets = 0;     // peer resets/EOF mid-run (ECONNRESET,
                                // EPIPE, RST) — expected under chaos,
                                // counted separately from errors
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

// warmup -> measuring -> done; workers poll this to bound their run.
enum class Phase : int { kWarmup, kMeasure, kDone };

struct Shared {
  std::atomic<Phase> phase{Phase::kWarmup};
  std::atomic<std::uint64_t> connected{0};
  std::atomic<std::uint64_t> measured{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> resets{0};
  serve::LatencyHistogram latency;
};

struct Conn {
  int fd = -1;
  bool connected = false;
  bool dead = false;
  std::string out;       // unsent request bytes
  std::size_t out_off = 0;
  std::string in;        // unparsed response bytes
  std::deque<Clock::time_point> sent_at;  // FIFO in-flight timestamps
};

/// One request line for the chosen verb.
std::string request_bytes(const std::string& verb) {
  return verb == "predict" ? "predict alexnet v100s\n" : "ping\n";
}

void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  lim.rlim_cur = lim.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &lim);
}

class Worker {
 public:
  Worker(const LoadgenOptions& options, int port, int n_conns,
         double thread_rps, Shared& shared)
      : options_(options), port_(port),
        request_(request_bytes(options.verb)),
        thread_interval_ns_(thread_rps > 0 ? 1e9 / thread_rps : 0),
        shared_(shared) {
    conns_.resize(static_cast<std::size_t>(n_conns));
  }

  void run() {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) return;
    kick_connects();

    auto next_send = Clock::now();
    epoll_event events[256];
    while (shared_.phase.load(std::memory_order_relaxed) != Phase::kDone) {
      int timeout_ms = 100;
      if (thread_interval_ns_ > 0) {
        const auto now = Clock::now();
        const double until_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(next_send -
                                                                 now)
                .count();
        timeout_ms = until_ns <= 0 ? 0 : static_cast<int>(until_ns / 1e6) + 1;
        if (timeout_ms > 100) timeout_ms = 100;
      }
      const int n = ::epoll_wait(epfd_, events,
                                 static_cast<int>(std::size(events)),
                                 timeout_ms);
      for (int i = 0; i < n; ++i) {
        const std::size_t idx = events[i].data.u32;
        Conn& conn = conns_[idx];
        if (conn.dead) continue;
        if (!conn.connected) {
          finish_connect(idx);
          continue;
        }
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          fail_conn(conn, /*reset=*/true);
          continue;
        }
        if (events[i].events & EPOLLOUT) flush_out(idx);
        if (events[i].events & EPOLLIN) read_responses(idx);
      }
      // Open-loop arrival: issue every request whose scheduled time
      // passed, round-robin over the connected pool.
      if (thread_interval_ns_ > 0) {
        const auto now = Clock::now();
        while (next_send <= now) {
          issue_on_next_conn();
          next_send += std::chrono::nanoseconds(
              static_cast<std::int64_t>(thread_interval_ns_));
        }
      }
    }
    for (Conn& conn : conns_)
      if (conn.fd >= 0) ::close(conn.fd);
    ::close(epfd_);
  }

 private:
  static constexpr int kConnectWave = 256;

  void kick_connects() {
    while (next_to_connect_ < conns_.size() &&
           connecting_ < kConnectWave) {
      start_connect(next_to_connect_++);
    }
  }

  void start_connect(std::size_t idx) {
    Conn& conn = conns_[idx];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn.fd < 0) {
      conn.dead = true;
      shared_.errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // RST on close: a 10k-connection run must not leave 10k TIME_WAIT
    // sockets behind to slow down the next run.
    const linger hard_close{1, 0};
    ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &hard_close,
                 sizeof(hard_close));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr);
    const int rc =
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      fail_conn(conn);
      return;
    }
    ++connecting_;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u32 = static_cast<std::uint32_t>(idx);
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn.fd, &ev);
  }

  void finish_connect(std::size_t idx) {
    Conn& conn = conns_[idx];
    --connecting_;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      fail_conn(conn);
      kick_connects();
      return;
    }
    conn.connected = true;
    shared_.connected.fetch_add(1, std::memory_order_relaxed);
    update_interest(idx);
    // Closed loop: prime the pipeline window.
    if (thread_interval_ns_ <= 0)
      for (int k = 0; k < options_.pipeline; ++k) issue(idx);
    kick_connects();
  }

  /// `reset` distinguishes a peer that dropped us mid-run (expected
  /// under fault injection; the run carries on with one connection
  /// fewer) from connect and other socket failures.
  void fail_conn(Conn& conn, bool reset = false) {
    if (conn.fd >= 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      ::close(conn.fd);
    }
    conn.fd = -1;
    conn.dead = true;
    (reset ? shared_.resets : shared_.errors)
        .fetch_add(1, std::memory_order_relaxed);
  }

  void update_interest(std::size_t idx) {
    Conn& conn = conns_[idx];
    epoll_event ev{};
    ev.events = EPOLLIN |
                (conn.out_off < conn.out.size() ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(idx);
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  /// Queue one request on connection idx and push its timestamp.
  void issue(std::size_t idx) {
    Conn& conn = conns_[idx];
    if (conn.dead || !conn.connected) return;
    conn.out.append(request_);
    conn.sent_at.push_back(Clock::now());
    flush_out(idx);
  }

  void issue_on_next_conn() {
    for (std::size_t tries = 0; tries < conns_.size(); ++tries) {
      const std::size_t idx = rr_++ % conns_.size();
      if (!conns_[idx].dead && conns_[idx].connected) {
        issue(idx);
        return;
      }
    }
  }

  void flush_out(std::size_t idx) {
    Conn& conn = conns_[idx];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fail_conn(conn,
                /*reset=*/n < 0 && (errno == ECONNRESET || errno == EPIPE));
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    update_interest(idx);
  }

  void read_responses(std::size_t idx) {
    Conn& conn = conns_[idx];
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or reset mid-run: the server closed us (idle reap, chaos
      // fault, backpressure) — count as a reset, not an error.
      fail_conn(conn, /*reset=*/n == 0 || errno == ECONNRESET);
      return;
    }
    parse_lines(conn);
    // Closed-loop re-issues queue on conn.out; push them out now.
    if (!conn.dead && conn.out_off < conn.out.size()) flush_out(idx);
  }

  /// Completes one request per response line; a line without
  /// "ok":true also counts as an error.
  void parse_lines(Conn& conn) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn.in.find('\n', start);
      if (nl == std::string::npos) break;
      if (!std::string_view(conn.in)
               .substr(start, nl - start)
               .starts_with("{\"ok\":true"))
        shared_.errors.fetch_add(1, std::memory_order_relaxed);
      complete_one(conn);
      start = nl + 1;
    }
    if (start > 0) conn.in.erase(0, start);
  }

  void complete_one(Conn& conn) {
    Clock::time_point sent{};
    if (!conn.sent_at.empty()) {
      sent = conn.sent_at.front();
      conn.sent_at.pop_front();
    }
    const Phase phase = shared_.phase.load(std::memory_order_relaxed);
    if (phase == Phase::kMeasure) {
      shared_.measured.fetch_add(1, std::memory_order_relaxed);
      if (sent != Clock::time_point{}) {
        const double seconds =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - sent)
                .count() *
            1e-9;
        shared_.latency.record(seconds);
      }
    }
    // Closed loop: keep the pipeline window full.
    if (thread_interval_ns_ <= 0 && phase != Phase::kDone)
      conn.out.append(request_), conn.sent_at.push_back(Clock::now());
  }

  const LoadgenOptions& options_;
  const int port_;
  const std::string request_;
  const double thread_interval_ns_;
  Shared& shared_;

  int epfd_ = -1;
  std::vector<Conn> conns_;
  std::size_t next_to_connect_ = 0;
  int connecting_ = 0;
  std::size_t rr_ = 0;
};

/// One run: ramp the connections, warm up for --warmup-s, then
/// measure for --duration-s.
RunResult run(const LoadgenOptions& options, int port) {
  std::cerr << "loadgen: " << options.verb << " x" << options.connections
            << " conns, " << options.duration_s << "s...\n";
  Shared shared;
  const int threads = std::max(1, options.threads);
  const double thread_rps = options.rps > 0 ? options.rps / threads : 0.0;

  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::thread> pool;
  int remaining = options.connections;
  for (int t = 0; t < threads; ++t) {
    const int share = remaining / (threads - t);
    remaining -= share;
    workers.push_back(
        std::make_unique<Worker>(options, port, share, thread_rps, shared));
  }
  for (auto& worker : workers)
    pool.emplace_back([&worker] { worker->run(); });

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(options.warmup_s * 1000)));
  const auto measure_start = Clock::now();
  shared.phase.store(Phase::kMeasure);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(options.duration_s * 1000)));
  shared.phase.store(Phase::kDone);
  const double measured_s =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           measure_start)
          .count() *
      1e-9;
  for (auto& thread : pool) thread.join();

  RunResult result;
  result.connected = shared.connected.load();
  result.requests = shared.measured.load();
  result.errors = shared.errors.load();
  result.resets = shared.resets.load();
  result.rps = measured_s > 0 ? result.requests / measured_s : 0.0;
  result.p50_us = shared.latency.percentile(0.50) * 1e6;
  result.p99_us = shared.latency.percentile(0.99) * 1e6;
  result.p999_us = shared.latency.percentile(0.999) * 1e6;
  return result;
}

std::string report_json(const LoadgenOptions& options, const RunResult& r,
                        const ServerCounters* server) {
  std::ostringstream out;
  out << "{\n  \"loadgen\": {"
      << "\"connections\": " << options.connections
      << ", \"threads\": " << options.threads
      << ", \"duration_s\": " << options.duration_s
      << ", \"pipeline\": " << options.pipeline
      << ", \"rps_target\": " << options.rps << ", \"verb\": \""
      << options.verb << "\"},\n  \"runs\": [\n"
      << "    {\"connected\": " << r.connected
      << ", \"requests\": " << r.requests
      << ", \"errors\": " << r.errors << ", \"resets\": " << r.resets
      << ", \"rps\": " << r.rps
      << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
      << ", \"p999_us\": " << r.p999_us << "}\n  ]";
  if (server != nullptr)
    out << ",\n  \"server\": {\"loop_stalls\": " << server->loop_stalls
        << ", \"requests_line\": " << server->requests_line
        << ", \"requests_inline\": " << server->requests_inline << "}";
  out << "\n}\n";
  return out.str();
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --host A           server address (default 127.0.0.1)\n"
      << "  --port N           server port (required unless --self)\n"
      << "  --self             start an in-process server to load\n"
      << "  --connections N    concurrent connections (default 10000)\n"
      << "  --threads N        worker threads (default 4)\n"
      << "  --warmup-s S       excluded from stats (default 1)\n"
      << "  --duration-s S     measured window (default 5)\n"
      << "  --pipeline N       closed-loop in-flight/conn (default 1)\n"
      << "  --rps N            open-loop offered rate (0 = closed loop)\n"
      << "  --verb V           ping | predict (default ping)\n"
      << "  --out FILE         write loadgen-native JSON report\n"
      << "  --fault-spec S     arm in-process faults (--self only),\n"
      << "                     e.g. net.read=throw*100;net.write=throw*50\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") options.host = value();
    else if (arg == "--port") options.port = std::stoi(value());
    else if (arg == "--self") options.self = true;
    else if (arg == "--connections") options.connections = std::stoi(value());
    else if (arg == "--threads") options.threads = std::stoi(value());
    else if (arg == "--warmup-s") options.warmup_s = std::stod(value());
    else if (arg == "--duration-s") options.duration_s = std::stod(value());
    else if (arg == "--pipeline") options.pipeline = std::stoi(value());
    else if (arg == "--rps") options.rps = std::stod(value());
    else if (arg == "--verb") options.verb = value();
    else if (arg == "--out") options.out = value();
    else if (arg == "--fault-spec") options.fault_spec = value();
    else
      return usage(argv[0]);
  }
  if (!options.self && options.port == 0) return usage(argv[0]);

  raise_fd_limit();

  if (!options.fault_spec.empty()) {
    if (!options.self)
      std::cerr << "loadgen: --fault-spec arms faults in THIS process; "
                   "without --self the external server is unaffected\n";
    gpuperf::fault::arm_from_spec(options.fault_spec);
  }

  // In-process target: small training subset (we measure serving I/O,
  // not training) and a backlog sized for the connect ramp.
  std::unique_ptr<serve::ServeSession> session;
  std::unique_ptr<serve::TcpServer> server;
  int port = options.port;
  if (options.self) {
    serve::ServeOptions serve_options;
    serve_options.train_models = {"alexnet", "mobilenet"};
    session = std::make_unique<serve::ServeSession>(serve_options);
    serve::TcpServer::Options server_options;
    server_options.backlog = std::max(1024, options.connections);
    server = std::make_unique<serve::TcpServer>(*session, server_options);
    server->start();
    port = server->port();
  }

  const RunResult r = run(options, port);
  std::cerr << "  connected=" << r.connected << " requests=" << r.requests
            << " errors=" << r.errors << " resets=" << r.resets
            << " rps=" << r.rps << " p50=" << r.p50_us
            << "us p99=" << r.p99_us << "us p999=" << r.p999_us << "us\n";

  ServerCounters counters;
  if (server) {
    session->stats_json();  // syncs the event-loop counters
    const serve::MetricsRegistry& metrics = session->metrics();
    counters.loop_stalls = metrics.counter_value("loop_stalls");
    counters.requests_line = metrics.counter_value("requests_line");
    counters.requests_inline = metrics.counter_value("requests_inline");
    std::cerr << "  server: loop_stalls=" << counters.loop_stalls
              << " requests_line=" << counters.requests_line
              << " requests_inline=" << counters.requests_inline << "\n";
    server->drain(2000);
    server->stop();
  }

  const std::string report =
      report_json(options, r, server ? &counters : nullptr);
  std::cout << report;
  if (!options.out.empty()) {
    std::ofstream file(options.out);
    file << report;
  }
  return 0;
}
