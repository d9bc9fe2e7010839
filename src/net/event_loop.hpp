// Epoll-based event loop: the I/O half of the async serving core.  One
// thread multiplexes every connection — nonblocking accept4, edge-
// triggered reads into per-connection growable buffers, buffered
// writes flushed as the socket drains.  A Handler may answer requests
// it can answer from memory itself (enqueue_output); compute happens
// elsewhere: the handler dispatches those requests onto a worker pool
// and posts responses back through the thread-safe send(), which
// wakes the loop via an eventfd.
//
// Protocol-agnostic by design: the loop moves bytes and tracks
// connection lifecycle; framing and request semantics live in the
// Handler (serve/server.cpp).
//
// Flow control: a connection whose input buffer reaches
// max_input_buffer stops being read (edge-triggered readiness is
// remembered, not lost) until its in-flight dispatch completes —
// pipelining floods hold a bounded number of bytes per connection.  A
// handler that answered everything it parsed but left input behind
// (its per-call parse bound), or whose reading paused, gets another
// call through the completion path send() uses, after this
// iteration's ready connections.
// Idle connections are reaped by a hashed timer wheel; reads, writes
// and dispatch completions refresh the activity clock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/buffer.hpp"
#include "net/timer_wheel.hpp"

namespace gpuperf::net {

using ConnId = std::uint64_t;

/// Loop-lifetime counters, all monotonic except `active`.  Relaxed
/// atomics: readers (the stats verb) tolerate slightly stale values.
struct LoopStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> epoll_wakeups{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> idle_reaped{0};
  std::atomic<std::uint64_t> accept_emfile{0};
  std::atomic<std::uint64_t> slow_loris_closed{0};
  std::atomic<std::uint64_t> backpressure_closed{0};
  std::atomic<std::uint64_t> loop_stalls{0};
  /// 1 when open_spare_fd() failed: the EMFILE recovery path is dead.
  std::atomic<std::uint64_t> spare_fd_unavailable{0};
};

class EventLoop {
 public:
  /// Callbacks run on the loop thread; they must not block.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// Bytes arrived (or a dispatch completed and parsing may resume).
    /// Consume a bounded number of parsed requests from `in`; emit
    /// in-memory answers via enqueue_output() and long work via
    /// mark_dispatch() + a worker that later calls send().  Input left
    /// behind with nothing dispatched is offered again after this
    /// iteration's ready connections.
    /// Return false to close the connection once its output flushes.
    virtual bool on_data(ConnId id, Buffer& in) = 0;
    /// The connection is gone (peer closed, error, reaped, or loop
    /// shutdown).  Always called exactly once per accepted connection.
    virtual void on_close(ConnId id) = 0;
  };

  struct Options {
    /// Reap a connection idle (no reads, writes, or in-flight work) for
    /// this long; 0 disables reaping.
    int idle_timeout_ms = 0;
    /// Slow-loris defense, distinct from idle reaping: a connection
    /// holding a partial request (buffered bytes, nothing dispatched)
    /// that fails to complete it within this window is closed and
    /// counted in slow_loris_closed.  Drip-feeding one byte per second
    /// defeats the idle timer (every read refreshes activity) but not
    /// this clock, which only resets when a request completes parsing.
    /// 0 disables the check.
    int read_progress_timeout_ms = 0;
    /// Per-connection input-buffer bound; reading pauses at the bound
    /// until the handler has parsed what is buffered.
    std::size_t max_input_buffer = 1u << 20;
    /// Per-connection output-buffer bound: a peer that stops reading
    /// while responses accumulate past this many bytes is disconnected
    /// (backpressure_closed) instead of holding memory hostage.
    /// 0 disables the bound.
    std::size_t max_output_buffer = 8u << 20;
  };

  /// Takes ownership of `listen_fd` (nonblocking, listening).
  EventLoop(int listen_fd, Handler& handler, Options options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// The loop body; call from the dedicated loop thread.  Returns after
  /// stop().  On return every connection has been closed (with
  /// on_close delivered).
  void run();

  /// Thread-safe: wake the loop and return; run() exits promptly.
  void stop();

  /// Thread-safe: queue `bytes` for connection `id` and wake the loop.
  /// `completes_dispatch` marks the end of a mark_dispatch() unit
  /// (resumes parsing); `close_after` closes the connection once the
  /// bytes flush.  Bytes for an already-closed connection are dropped.
  void send(ConnId id, std::string bytes, bool completes_dispatch,
            bool close_after);

  /// Thread-safe graceful drain: close the listener and half-close
  /// every connection for reading; in-flight work still writes its
  /// responses, then connections close as they finish.
  void drain();

  /// Block until every connection closed or `timeout_ms` elapsed.
  bool wait_connections_closed(int timeout_ms);

  // ---- loop-thread-only (call from Handler callbacks) ----------------
  /// Account one unit of in-flight work on `id`; parsing pauses until a
  /// matching send(..., completes_dispatch=true) arrives.
  void mark_dispatch(ConnId id);
  /// Outstanding dispatch units on `id`.
  int in_flight(ConnId id) const;
  /// Append bytes to the connection's output (flushed after on_data
  /// returns) — the path for answers the handler makes itself.
  void enqueue_output(ConnId id, std::string_view bytes);

  const LoopStats& stats() const { return stats_; }

  /// Watchdog heartbeat: milliseconds since the loop last completed an
  /// iteration, or -1 before run() starts.  Thread-safe; the ready
  /// probe treats a stale heartbeat (loop wedged in a handler or a
  /// stalled syscall) as not-ready.
  std::int64_t heartbeat_age_ms() const;

  /// True once drain() has been requested.  Thread-safe.
  bool draining() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

 private:
  struct Conn {
    int fd = -1;
    ConnId id = 0;
    Buffer in;
    Buffer out;
    int in_flight = 0;
    std::int64_t last_activity_ms = 0;
    // When the partial request currently being buffered started
    // arriving; 0 = no partial request pending.  Feeds the slow-loris
    // deadline (read_progress_timeout_ms).
    std::int64_t read_start_ms = 0;
    bool want_write = false;   // EPOLLOUT currently armed
    bool read_paused = false;  // input buffer at its bound
    bool read_eof = false;     // peer half-closed (or drain SHUT_RD)
    bool close_when_flushed = false;
  };

  struct PendingSend {
    ConnId id;
    std::string bytes;
    bool completes_dispatch;
    bool close_after;
  };

  static std::int64_t now_ms();

  void accept_ready();
  void conn_readable(Conn& conn);
  /// False when the connection was closed on a write error.
  bool flush_output(Conn& conn);
  void update_epollout(Conn& conn);
  void run_handler(Conn& conn);
  void process_pending_sends();
  void do_drain();
  void expire_idle();
  void expire_stalled_reads();
  void maybe_close(Conn& conn);
  void close_conn(ConnId id);
  Conn* find(ConnId id);

  Handler& handler_;
  Options options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: send()/stop()/drain() wake the loop
  int spare_fd_ = -1;  // reserved fd, sacrificed to accept under EMFILE
  std::unordered_map<ConnId, Conn> conns_;
  ConnId next_id_ = 2;  // 0 = listener, 1 = wake eventfd
  std::int64_t tick_ms_;
  TimerWheel wheel_;
  LoopStats stats_;

  std::atomic<std::int64_t> heartbeat_ms_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_requested_{false};
  bool drained_ = false;  // loop-thread: do_drain already ran

  std::mutex mutex_;  // guards pending_ and the closed-notify cv
  std::condition_variable cv_;
  std::deque<PendingSend> pending_;
};

}  // namespace gpuperf::net
