#include "net/event_loop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/io.hpp"
#include "net/socket.hpp"

namespace gpuperf::net {

namespace {

constexpr std::size_t kReadChunk = 16384;
constexpr std::uint32_t kConnEvents = EPOLLIN | EPOLLET | EPOLLRDHUP;
// Bounded accepts per wakeup; the listener is level-triggered so the
// remainder re-fires immediately, and no connection starves the loop.
constexpr int kAcceptBatch = 128;
// An iteration spending longer than this processing events means
// something blocked the loop thread (a handler, a stalled syscall);
// counted in loop_stalls and visible through heartbeat_age_ms().
constexpr std::int64_t kStallThresholdMs = 1000;

std::int64_t clamp_tick(int idle_timeout_ms, int read_progress_ms) {
  std::int64_t tick = 1000;
  if (idle_timeout_ms > 0)
    tick = std::min<std::int64_t>(
        tick, std::clamp<std::int64_t>(idle_timeout_ms / 4, 10, 1000));
  if (read_progress_ms > 0)
    tick = std::min<std::int64_t>(
        tick, std::clamp<std::int64_t>(read_progress_ms / 4, 10, 1000));
  return tick;
}

}  // namespace

EventLoop::EventLoop(int listen_fd, Handler& handler, Options options)
    : handler_(handler), options_(options), listen_fd_(listen_fd),
      tick_ms_(clamp_tick(options.idle_timeout_ms,
                          options.read_progress_timeout_ms)),
      wheel_(tick_ms_, 512) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  GP_CHECK_MSG(epoll_fd_ >= 0,
               "epoll_create1 failed: " << std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  GP_CHECK_MSG(wake_fd_ >= 0,
               "eventfd failed: " << std::strerror(errno));
  spare_fd_ = open_spare_fd();
  if (spare_fd_ < 0) {
    // Armed-but-dead EMFILE recovery would otherwise fail silently the
    // first time the fd table fills up.
    stats_.spare_fd_unavailable.store(1, std::memory_order_relaxed);
    GP_LOG(kWarn) << "could not reserve a spare fd (" <<
        std::strerror(errno) << "); EMFILE accept recovery is disabled";
  }
}

EventLoop::~EventLoop() {
  // run()'s teardown delivered on_close for everything it saw; anything
  // left means run() never executed — just release the fds.
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (spare_fd_ >= 0) ::close(spare_fd_);
}

std::int64_t EventLoop::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

EventLoop::Conn* EventLoop::find(ConnId id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

void EventLoop::run() {
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered listener: see kAcceptBatch
  ev.data.u64 = 0;
  GP_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.u64 = 1;
  GP_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);

  std::vector<epoll_event> events(256);
  heartbeat_ms_.store(now_ms(), std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_acquire)) {
    // Always a finite timeout: the watchdog heartbeat must advance even
    // on a traffic-free loop, and the periodic sweeps need a tick.
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()),
                     static_cast<int>(tick_ms_));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const std::int64_t iteration_start = now_ms();
    stats_.epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const ConnId id = events[i].data.u64;
      if (id == 0) {
        accept_ready();
        continue;
      }
      if (id == 1) {
        std::uint64_t drainer = 0;
        while (::read(wake_fd_, &drainer, sizeof(drainer)) > 0) {
        }
        continue;
      }
      Conn* conn = find(id);
      if (conn == nullptr) continue;  // closed earlier in this batch
      const std::uint32_t e = events[i].events;
      if ((e & EPOLLERR) != 0) {
        close_conn(id);
        continue;
      }
      if ((e & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
        conn_readable(*conn);
        conn = find(id);
        if (conn == nullptr) continue;
      }
      if ((e & EPOLLOUT) != 0) {
        if (!flush_output(*conn)) continue;
        conn = find(id);
        if (conn != nullptr) maybe_close(*conn);
      }
    }
    process_pending_sends();
    if (drain_requested_.load(std::memory_order_acquire) && !drained_)
      do_drain();
    if (options_.idle_timeout_ms > 0) expire_idle();
    if (options_.read_progress_timeout_ms > 0) expire_stalled_reads();
    const std::int64_t iteration_end = now_ms();
    if (iteration_end - iteration_start > kStallThresholdMs)
      stats_.loop_stalls.fetch_add(1, std::memory_order_relaxed);
    heartbeat_ms_.store(iteration_end, std::memory_order_relaxed);
  }

  // Teardown: every surviving connection closes with on_close
  // delivered, so the handler's bookkeeping ends balanced.
  std::vector<ConnId> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const ConnId id : ids) close_conn(id);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void EventLoop::accept_ready() {
  for (int i = 0; i < kAcceptBatch; ++i) {
    const int fd =
        io::accept4(listen_fd_, nullptr, nullptr,
                    SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO)
        continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds: sacrifice the spare to accept the pending
        // connection and close it immediately — the client sees a
        // clean close instead of a half-open socket, and the loop
        // doesn't spin on a level-triggered accept that can never
        // succeed.
        stats_.accept_emfile.fetch_add(1, std::memory_order_relaxed);
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          spare_fd_ = -1;
        }
        const int victim = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (victim >= 0) ::close(victim);
        if (spare_fd_ < 0) spare_fd_ = open_spare_fd();
        if (spare_fd_ < 0)
          stats_.spare_fd_unavailable.store(1, std::memory_order_relaxed);
        continue;
      }
      return;  // EAGAIN or a transient error: next wakeup retries
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const ConnId id = next_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    conn.id = id;
    conn.last_activity_ms = now_ms();
    epoll_event ev{};
    ev.events = kConnEvents;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.active.fetch_add(1, std::memory_order_relaxed);
    if (options_.idle_timeout_ms > 0)
      wheel_.schedule(id, conn.last_activity_ms + options_.idle_timeout_ms);
    // Edge-triggered from here on: bytes may already be waiting.
    conn_readable(conn);
  }
}

void EventLoop::conn_readable(Conn& conn) {
  const ConnId id = conn.id;
  while (!conn.read_eof) {
    if (conn.in.size() >= options_.max_input_buffer) {
      conn.read_paused = true;  // resumed when the dispatch completes
      break;
    }
    char* dst = conn.in.reserve(kReadChunk);
    const ssize_t n = io::read(conn.fd, dst, kReadChunk);
    if (n > 0) {
      conn.in.commit(static_cast<std::size_t>(n));
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      conn.last_activity_ms = now_ms();
      // Start the slow-loris clock when a request begins arriving; it
      // keeps running across drip-fed reads (unlike last_activity_ms).
      if (conn.read_start_ms == 0) conn.read_start_ms = now_ms();
      continue;
    }
    conn.in.commit(0);
    if (n == 0) {
      conn.read_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(id);
    return;
  }
  run_handler(conn);
}

void EventLoop::run_handler(Conn& conn) {
  const ConnId id = conn.id;
  const std::size_t before = conn.in.size();
  const int dispatched_before = conn.in_flight;
  if (!handler_.on_data(id, conn.in)) conn.close_when_flushed = true;
  // Re-base the slow-loris clock only when parsing made real progress
  // (bytes consumed or work dispatched); a drip-fed partial request
  // leaves the clock running from its first byte.
  if (conn.in.empty())
    conn.read_start_ms = 0;
  else if (conn.in.size() < before || conn.in_flight > dispatched_before)
    conn.read_start_ms = now_ms();
  // The handler answered all it parsed, yet bytes remain or reading
  // paused: no dispatch will complete to resume it, so complete one
  // through send(), which runs after this iteration's ready
  // connections.  Never recurse here — a pipelining peer would hold
  // the loop.
  if (conn.in_flight == 0 && !conn.close_when_flushed &&
      conn.in.size() < before && (!conn.in.empty() || conn.read_paused)) {
    ++conn.in_flight;
    send(id, {}, /*completes_dispatch=*/true, /*close_after=*/false);
  }
  if (!flush_output(conn)) return;
  Conn* alive = find(id);
  if (alive != nullptr) maybe_close(*alive);
}

bool EventLoop::flush_output(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t n = io::write(conn.fd, conn.out.data(), conn.out.size());
    if (n > 0) {
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
      conn.out.consume(static_cast<std::size_t>(n));
      conn.last_activity_ms = now_ms();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(conn.id);
    return false;
  }
  if (options_.max_output_buffer > 0 &&
      conn.out.size() > options_.max_output_buffer) {
    // The peer stopped reading while responses piled up: shed the
    // connection rather than buffer without bound.
    stats_.backpressure_closed.fetch_add(1, std::memory_order_relaxed);
    close_conn(conn.id);
    return false;
  }
  update_epollout(conn);
  return true;
}

void EventLoop::update_epollout(Conn& conn) {
  const bool want = !conn.out.empty();
  if (want == conn.want_write) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = kConnEvents | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoop::process_pending_sends() {
  std::deque<PendingSend> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch.swap(pending_);
  }
  for (PendingSend& p : batch) {
    Conn* conn = find(p.id);
    if (conn == nullptr) continue;  // connection died before its answer
    if (!p.bytes.empty()) conn->out.append(p.bytes);
    if (p.close_after) conn->close_when_flushed = true;
    bool resumed = false;
    if (p.completes_dispatch) {
      --conn->in_flight;
      conn->last_activity_ms = now_ms();
      // Whatever partial request follows the answered batch gets a
      // fresh slow-loris window.
      conn->read_start_ms = conn->in.empty() ? 0 : now_ms();
      resumed = conn->in_flight == 0;
    }
    if (!flush_output(*conn)) continue;
    conn = find(p.id);
    if (conn == nullptr) continue;
    if (resumed && !conn->close_when_flushed) {
      // The batch is answered: parse the pipelined requests already
      // buffered, then pull the edge-triggered backlog if reading had
      // paused at the buffer bound.
      const bool was_paused = conn->read_paused;
      conn->read_paused = false;
      if (was_paused) {
        conn_readable(*conn);  // reads + runs the handler + may close
        continue;
      }
      run_handler(*conn);
      continue;
    }
    maybe_close(*conn);
  }
}

void EventLoop::do_drain() {
  drained_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // SHUT_RD only: buffered and in-flight requests still write their
  // responses; the next read observes EOF and the connection closes
  // once it goes quiet.
  std::vector<ConnId> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const ConnId id : ids) {
    Conn* conn = find(id);
    if (conn == nullptr) continue;
    ::shutdown(conn->fd, SHUT_RD);
    conn_readable(*conn);
  }
}

void EventLoop::expire_idle() {
  const std::int64_t now = now_ms();
  for (const ConnId id : wheel_.expire(now)) {
    Conn* conn = find(id);
    if (conn == nullptr) continue;
    const std::int64_t idle = now - conn->last_activity_ms;
    if (idle >= options_.idle_timeout_ms && conn->in_flight == 0 &&
        conn->out.empty()) {
      stats_.idle_reaped.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    } else {
      // Active (or mid-request): re-arm for the remaining idle budget.
      wheel_.schedule(
          id, now + std::max<std::int64_t>(
                        options_.idle_timeout_ms - idle, tick_ms_));
    }
  }
}

void EventLoop::expire_stalled_reads() {
  const std::int64_t now = now_ms();
  std::vector<ConnId> stalled;
  for (const auto& [id, conn] : conns_) {
    if (conn.read_start_ms == 0 || conn.in_flight > 0 ||
        conn.read_paused)
      continue;
    if (now - conn.read_start_ms >= options_.read_progress_timeout_ms)
      stalled.push_back(id);
  }
  for (const ConnId id : stalled) {
    stats_.slow_loris_closed.fetch_add(1, std::memory_order_relaxed);
    close_conn(id);
  }
}

void EventLoop::maybe_close(Conn& conn) {
  if (conn.in_flight > 0 || !conn.out.empty()) return;
  if (conn.close_when_flushed || conn.read_eof) close_conn(conn.id);
}

void EventLoop::close_conn(ConnId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  wheel_.cancel(id);
  stats_.active.fetch_sub(1, std::memory_order_relaxed);
  handler_.on_close(id);
  // Lock then notify so a waiter can't check `active` and block between
  // the decrement and the wakeup.
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();  // wait_connections_closed watches `active`
}

void EventLoop::send(ConnId id, std::string bytes, bool completes_dispatch,
                     bool close_after) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(
        {id, std::move(bytes), completes_dispatch, close_after});
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain() {
  drain_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

std::int64_t EventLoop::heartbeat_age_ms() const {
  const std::int64_t beat = heartbeat_ms_.load(std::memory_order_relaxed);
  if (beat == 0) return -1;
  return std::max<std::int64_t>(0, now_ms() - beat);
}

bool EventLoop::wait_connections_closed(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto done = [this] {
    return stats_.active.load(std::memory_order_relaxed) == 0;
  };
  if (timeout_ms < 0) {
    cv_.wait(lock, done);
    return true;
  }
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), done);
}

void EventLoop::mark_dispatch(ConnId id) {
  Conn* conn = find(id);
  if (conn != nullptr) ++conn->in_flight;
}

int EventLoop::in_flight(ConnId id) const {
  const auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second.in_flight;
}

void EventLoop::enqueue_output(ConnId id, std::string_view bytes) {
  Conn* conn = find(id);
  if (conn != nullptr) conn->out.append(bytes);
}

}  // namespace gpuperf::net
