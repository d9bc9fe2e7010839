#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/socket.hpp"
#include "serve/errors.hpp"

namespace gpuperf::serve {

namespace {

/// Parse bound per on_data call: the loop answers or dispatches at most
/// this many pipelined requests before other connections get a turn,
/// and one worker task answers at most this many with a single write.
constexpr std::size_t kMaxBatch = 64;

/// A loop heartbeat older than this marks the server not-ready: the
/// loop ticks at most every second, so several missed ticks mean it is
/// genuinely wedged, not just idle.
constexpr std::int64_t kHeartbeatStaleMs = 5000;

}  // namespace

TcpServer::TcpServer(ServeSession& session, Options options)
    : session_(session), options_(std::move(options)) {
  GP_CHECK(options_.port >= 0 && options_.port <= 65535);
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start() {
  GP_CHECK_MSG(!running_.load(), "server already started");
  const int listen_fd = net::listen_tcp(options_.bind_address,
                                        options_.port, options_.backlog);
  port_ = net::bound_port(listen_fd);

  // Cache the counter refs for lock-free bumps on the loop thread
  // (MetricsRegistry guarantees stable addresses).
  requests_line_ = &session_.metrics().counter("requests_line");
  requests_inline_ = &session_.metrics().counter("requests_inline");

  workers_ = std::make_unique<ThreadPool>(options_.worker_threads);
  net::EventLoop::Options loop_options;
  loop_options.idle_timeout_ms = options_.idle_timeout_ms;
  loop_options.read_progress_timeout_ms =
      options_.read_progress_timeout_ms;
  loop_options.max_output_buffer = options_.max_output_buffer;
  // Room for at least one whole oversized line (detection needs
  // limit + 1 buffered bytes), plus pipelining slack.
  loop_options.max_input_buffer =
      std::max<std::size_t>(64u << 10, 2 * (options_.max_line_bytes + 2));
  // Cast here: the Handler base is private, so the conversion is only
  // accessible inside TcpServer members (not within make_unique).
  loop_ = std::make_unique<net::EventLoop>(
      listen_fd, static_cast<net::EventLoop::Handler&>(*this),
      loop_options);

  running_.store(true);
  loop_thread_ = std::thread([this] { loop_->run(); });
  session_.set_stats_hook([this] { sync_loop_stats(); });
  // Readiness reflects the loop: a stale watchdog heartbeat (the loop
  // wedged in a handler or a stalled syscall) or a graceful drain in
  // progress both report ready:false.
  net::EventLoop* loop = loop_.get();
  ServeSession::ReadyProbe probe;
  probe.loop_healthy = [loop] {
    const std::int64_t age = loop->heartbeat_age_ms();
    return age >= 0 && age < kHeartbeatStaleMs;
  };
  probe.draining = [loop] { return loop->draining(); };
  session_.set_ready_probe(std::move(probe));
  GP_LOG(kInfo) << "serve: listening on " << options_.bind_address << ":"
                << port_;
}

bool TcpServer::on_data(net::ConnId id, net::Buffer& in) {
  ConnState& state = conn_state_[id];
  if (state.closing) return false;
  // One batch in flight per connection: responses are written in
  // request order, so parsing resumes only once the batch is answered.
  if (loop_->in_flight(id) > 0) return true;

  std::vector<WorkItem> batch;
  while (batch.size() < kMaxBatch && !state.closing)
    if (!parse_line(state, in, batch)) break;

  // Answer in order on this thread until the first request that may
  // wait; it and everything behind it go to a worker as one batch.  If
  // the batch stopped at kMaxBatch, the loop calls back for the rest
  // after this iteration's ready connections (EventLoop::run_handler).
  // Only requests that would wait for a worker are shed: one the loop
  // answers itself never is.
  std::string out;
  std::size_t answered = 0;
  std::uint64_t by_session = 0;
  for (; answered < batch.size(); ++answered) {
    WorkItem& item = batch[answered];
    if (!item.preformed) {
      if (std::optional<Response> response =
              session_.try_handle(item.request)) {
        out += response->body;
        out += '\n';
        ++by_session;
        continue;
      }
      admit(item);
      if (!item.preformed) break;
    }
    out += item.response.body;
    out += '\n';
  }
  if (answered > 0) {
    requests_inline_->fetch_add(by_session, std::memory_order_relaxed);
    loop_->enqueue_output(id, out);
    batch.erase(batch.begin(),
                batch.begin() + static_cast<std::ptrdiff_t>(answered));
  }
  if (!batch.empty()) {
    // batch[0] was admitted above; the rest wait behind it.
    for (std::size_t i = 1; i < batch.size(); ++i) admit(batch[i]);
    dispatch(id, state, std::move(batch));
  }
  return !state.closing;
}

void TcpServer::on_close(net::ConnId id) { conn_state_.erase(id); }

void TcpServer::reject_oversized_line(ConnState& state,
                                      std::size_t observed,
                                      std::vector<WorkItem>& batch) {
  session_.metrics().counter("inputs_rejected").fetch_add(1);
  WorkItem item;
  item.preformed = true;
  item.response = error_response(
      ErrorCode::kInputTooLarge,
      "request line of " + std::to_string(observed) +
          " bytes exceeds the " + std::to_string(options_.max_line_bytes) +
          "-byte limit");
  batch.push_back(std::move(item));
  state.closing = true;
}

bool TcpServer::parse_line(ConnState& state, net::Buffer& in,
                           std::vector<WorkItem>& batch) {
  const std::string_view view = in.view();
  const std::size_t nl = view.find('\n');
  if (nl == std::string_view::npos) {
    // A line already past the limit can never become valid; reject it
    // without buffering unbounded bytes.
    if (view.size() > options_.max_line_bytes)
      reject_oversized_line(state, view.size(), batch);
    return false;
  }
  if (nl > options_.max_line_bytes) {
    reject_oversized_line(state, nl, batch);
    return false;
  }
  std::string line(view.substr(0, nl));
  in.consume(nl + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return true;  // blank keep-alive line
  requests_line_->fetch_add(1, std::memory_order_relaxed);
  WorkItem item;
  item.request = parse_request(line);
  item.heavy = is_heavy_verb(item.request.verb);
  batch.push_back(std::move(item));
  return true;
}

void TcpServer::admit(WorkItem& item) {
  if (item.preformed || !item.heavy || options_.max_pending == 0) return;
  if (pending_heavy_.load(std::memory_order_relaxed) <
      static_cast<std::int64_t>(options_.max_pending))
    return;
  session_.metrics().counter("shed_overloaded").fetch_add(1);
  item.preformed = true;
  item.response = error_response(
      ErrorCode::kOverloaded,
      "server queue at capacity (" +
          std::to_string(options_.max_pending) + " requests pending)",
      /*retry_after_ms=*/100);
}

void TcpServer::dispatch(net::ConnId id, ConnState& state,
                         std::vector<WorkItem> batch) {
  loop_->mark_dispatch(id);
  for (const WorkItem& item : batch)
    if (!item.preformed && item.heavy)
      pending_heavy_.fetch_add(1, std::memory_order_relaxed);
  const bool close_after = state.closing;
  net::EventLoop* loop = loop_.get();
  workers_->submit([this, loop, id, close_after,
                    batch = std::move(batch)]() mutable {
    std::string out;
    bool close = close_after;
    for (WorkItem& item : batch) {
      const Response response = item.preformed
                                    ? std::move(item.response)
                                    : session_.handle(item.request);
      if (!item.preformed && item.heavy)
        pending_heavy_.fetch_sub(1, std::memory_order_relaxed);
      if (response.shutdown_requested) {
        notify_stop_requested();
        close = true;
      }
      out += response.body;
      out += '\n';
    }
    loop->send(id, std::move(out), /*completes_dispatch=*/true, close);
  });
}

void TcpServer::notify_stop_requested() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_.store(true);
  }
  cv_.notify_all();
}

void TcpServer::sync_loop_stats() {
  const net::LoopStats& s = loop_->stats();
  MetricsRegistry& m = session_.metrics();
  m.counter("connections_accepted").store(s.accepted.load());
  m.counter("connections_active").store(s.active.load());
  m.counter("connections_idle_reaped").store(s.idle_reaped.load());
  m.counter("epoll_wakeups").store(s.epoll_wakeups.load());
  m.counter("bytes_in").store(s.bytes_in.load());
  m.counter("bytes_out").store(s.bytes_out.load());
  m.counter("accept_emfile").store(s.accept_emfile.load());
  m.counter("slow_loris_closed").store(s.slow_loris_closed.load());
  m.counter("backpressure_closed").store(s.backpressure_closed.load());
  m.counter("loop_stalls").store(s.loop_stalls.load());
  m.counter("spare_fd_unavailable").store(s.spare_fd_unavailable.load());
}

bool TcpServer::wait_for_stop(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto done = [this] {
    return stop_requested_.load() || !running_.load();
  };
  if (timeout_ms < 0)
    cv_.wait(lock, done);
  else
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), done);
  return stop_requested_.load();
}

bool TcpServer::drain(int timeout_ms) {
  if (!running_.load()) return true;
  loop_->drain();
  return loop_->wait_connections_closed(timeout_ms);
}

void TcpServer::stop() {
  if (!running_.exchange(false)) return;
  // Unhook stats first: set_stats_hook blocks on any in-progress hook
  // call, so after this nothing can reach loop_ through the session.
  session_.set_stats_hook({});
  session_.set_ready_probe({});
  loop_->stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The pool destructor drains queued handler tasks; their send()
  // calls land in the stopped (but still live) loop's queue — dropped.
  workers_.reset();
  loop_.reset();
  conn_state_.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
  }
  cv_.notify_all();
}

}  // namespace gpuperf::serve
