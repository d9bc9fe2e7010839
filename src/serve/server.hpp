// TCP front-end of the estimation service, built on the src/net epoll
// event loop: one I/O thread multiplexes every connection and answers
// the requests the session can answer from memory; everything that may
// wait runs on the server's own worker pool (its own, not the
// session's — the session pool fans out the analysis misses of a `dse`
// sweep, and a sweep started from one of that pool's own workers would
// run them serially).
//
// The wire is the newline/JSON line protocol of serve/protocol.hpp:
// one request line in, one single-line JSON response out.
//
// Per-connection flow: requests are parsed on the loop thread in
// batches of at most kMaxBatch.  The loop answers a batch's items in
// order through ServeSession::try_handle — a `ping`, or a `predict`
// whose features are cached — until the first item it declines;
// that item and the rest go to one worker task, which answers them in
// order with a single write.  Parsing resumes once the batch is
// answered, so responses are FIFO per connection and pipelining is
// safe.  The loop never runs DCA: a cold model is always dispatched.
//
// POSIX sockets only (the project targets Linux); loopback by default.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/limits.hpp"
#include "common/thread_pool.hpp"
#include "net/event_loop.hpp"
#include "serve/session.hpp"

namespace gpuperf::serve {

class TcpServer : private net::EventLoop::Handler {
 public:
  struct Options {
    /// 0 picks an ephemeral port; read the result from port().
    int port = 0;
    std::string bind_address = "127.0.0.1";
    /// Longest accepted request line.  A connection that exceeds it —
    /// with or without a newline — gets one typed "input_too_large"
    /// error response and is closed (docs/ROBUSTNESS.md).
    std::size_t max_line_bytes =
        InputLimits::defaults().max_request_line_bytes;
    /// Listen backlog (--backlog).
    int backlog = 128;
    /// Reap connections idle for this long (--idle-timeout-ms);
    /// 0 = never.  Reaps are counted as connections_idle_reaped.
    int idle_timeout_ms = 0;
    /// Slow-loris defense (--read-progress-timeout-ms): close a
    /// connection that drips a partial request without completing it
    /// within this window (counted as slow_loris_closed); distinct
    /// from the idle timer, which drip-fed bytes keep resetting.
    /// 0 = off.
    int read_progress_timeout_ms = 0;
    /// Per-connection output-buffer bound (--max-output-buffer): a
    /// peer that stops reading while responses accumulate past this
    /// many bytes is disconnected (backpressure_closed).  0 = off.
    std::size_t max_output_buffer = 8u << 20;
    /// Request-handling worker threads; 0 = hardware threads.
    std::size_t worker_threads = 0;
    /// Loop-level shed bound: heavy requests (is_heavy_verb) that
    /// would be dispatched past this many dispatched-but-unanswered get
    /// an immediate `overloaded` response instead of queueing on the
    /// worker pool.  Requests the loop answers itself (ping, a predict
    /// of held features) and cheap verbs always pass, so the server
    /// stays observable.  0 = unbounded (the session's max_in_flight
    /// still applies).
    std::size_t max_pending = 0;
  };

  /// The session must outlive the server.
  TcpServer(ServeSession& session, Options options);
  explicit TcpServer(ServeSession& session)
      : TcpServer(session, Options()) {}
  ~TcpServer() override;

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + spawn the event loop; GP_CHECK-fails if the port
  /// is taken.
  void start();

  /// The bound port (valid after start()).
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// True once a client sent `shutdown` (the server keeps accepting
  /// until stop() — the owner decides when to wind down).
  bool stop_requested() const { return stop_requested_.load(); }

  /// Block until a shutdown request arrives or `timeout_ms` elapses
  /// (timeout_ms < 0 = forever).  Returns stop_requested().
  bool wait_for_stop(int timeout_ms = -1);

  /// Graceful drain (the SIGINT/SIGTERM path): close the listener so no
  /// new connections arrive, half-close every open connection for
  /// reading — in-flight requests still write their responses — and
  /// wait up to `timeout_ms` for the connections to finish.  Returns
  /// true when every connection drained in time.  Call stop() after to
  /// join the threads; stragglers are then cut off hard.
  bool drain(int timeout_ms);

  /// Stop the loop, join its thread, drain the worker pool.
  /// Idempotent; a stopped server can start() again.
  void stop();

 private:
  /// One parsed (or preformed) request in a dispatch batch; answered in
  /// order by a single worker task.
  struct WorkItem {
    Request request;
    bool heavy = false;
    /// Preformed response (shed / parse error): skip the session.
    bool preformed = false;
    Response response;
  };

  struct ConnState {
    bool closing = false;
  };

  // net::EventLoop::Handler (loop thread)
  bool on_data(net::ConnId id, net::Buffer& in) override;
  void on_close(net::ConnId id) override;

  bool parse_line(ConnState& state, net::Buffer& in,
                  std::vector<WorkItem>& batch);
  void reject_oversized_line(ConnState& state, std::size_t observed,
                             std::vector<WorkItem>& batch);
  void admit(WorkItem& item);
  void dispatch(net::ConnId id, ConnState& state,
                std::vector<WorkItem> batch);
  void notify_stop_requested();
  void sync_loop_stats();

  ServeSession& session_;
  Options options_;
  int port_ = 0;

  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> workers_;
  std::unordered_map<net::ConnId, ConnState> conn_state_;  // loop thread

  /// Heavy requests dispatched but not yet answered (the max_pending
  /// shed gauge; bumped on the loop thread, dropped by worker tasks).
  std::atomic<std::int64_t> pending_heavy_{0};
  std::atomic<std::uint64_t>* requests_line_ = nullptr;
  std::atomic<std::uint64_t>* requests_inline_ = nullptr;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
};

}  // namespace gpuperf::serve
