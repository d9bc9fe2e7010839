#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_set>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "net/io.hpp"

namespace gpuperf::serve {

namespace {

void set_socket_timeout(int fd, int option, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

bool is_timeout_errno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT;
}

}  // namespace

TcpClient::TcpClient(const std::string& host, int port, Options options) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  GP_CHECK_MSG(fd_ >= 0, "socket() failed: " << std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    GP_CHECK_MSG(false,
                 "bad host address '" << host << "' (use an IPv4 literal)");
  }

  const std::string where = host + ":" + std::to_string(port);
  const auto fail = [this, &where](const std::string& what,
                                   bool timed_out) {
    ::close(fd_);
    fd_ = -1;
    throw ClientError("connect to " + where + " " + what, timed_out);
  };

  // Non-blocking connect + poll: an unreachable host fails after
  // connect_timeout_ms instead of the kernel's minutes-long default.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (net::io::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    if (errno != EINPROGRESS)
      fail(std::string("failed: ") + std::strerror(errno), false);
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    const int timeout =
        options.connect_timeout_ms > 0 ? options.connect_timeout_ms : -1;
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0)
      fail("timed out after " + std::to_string(options.connect_timeout_ms) +
               " ms",
           true);
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc < 0 ||
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0)
      fail(std::string("failed: ") + std::strerror(err != 0 ? err : errno),
           false);
  }
  ::fcntl(fd_, F_SETFL, flags);  // back to blocking for request()

  set_socket_timeout(fd_, SO_RCVTIMEO, options.io_timeout_ms);
  set_socket_timeout(fd_, SO_SNDTIMEO, options.io_timeout_ms);
  max_response_bytes_ = options.max_response_bytes;
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpClient::send_all(const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        net::io::write(fd_, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      const int err = errno;
      if (n < 0 && is_timeout_errno(err))
        throw ClientError("send timed out", true);
      throw ClientError(std::string("send failed: ") + std::strerror(err),
                        false);
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string TcpClient::request(const std::string& line) {
  send_all(line + "\n");

  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string response = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!response.empty() && response.back() == '\r')
        response.pop_back();
      return response;
    }
    const ssize_t n = net::io::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && is_timeout_errno(errno))
      throw ClientError("response timed out", true);
    if (n <= 0)
      throw ClientError("server closed the connection mid-response",
                        false);
    buffer_.append(chunk, static_cast<std::size_t>(n));
    if (buffer_.size() > max_response_bytes_)
      throw ClientError(
          "response exceeds " + std::to_string(max_response_bytes_) +
              " bytes without a newline",
          false);
  }
}

std::string request_with_retry(const std::string& host, int port,
                               const std::string& line, RetryPolicy policy,
                               TcpClient::Options options) {
  GP_CHECK_MSG(policy.attempts > 0, "retry policy needs >= 1 attempt");
  std::mt19937_64 rng(policy.seed != 0 ? policy.seed
                                       : 0x9e3779b97f4a7c15ULL);
  std::string last_error;
  int backoff_ms = policy.base_backoff_ms;
  for (int attempt = 0; attempt < policy.attempts; ++attempt) {
    if (attempt > 0) {
      std::uniform_int_distribution<int> jitter(0, std::max(1, backoff_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(jitter(rng)));
      backoff_ms = std::min(backoff_ms * 2, policy.max_backoff_ms);
    }
    try {
      TcpClient client(host, port, options);
      const std::string response = client.request(line);
      // Shedding is the one server answer worth retrying: the server is
      // up and will likely have capacity after the backoff.
      if (response.find("\"code\":\"overloaded\"") != std::string::npos) {
        last_error = "server overloaded";
        continue;
      }
      return response;
    } catch (const ClientError& e) {
      last_error = e.what();
    }
  }
  throw ClientError("request to " + host + ":" + std::to_string(port) +
                        " failed after " +
                        std::to_string(policy.attempts) +
                        " attempts; last error: " + last_error,
                    false);
}

std::vector<Endpoint> parse_endpoints(const std::string& spec) {
  std::vector<Endpoint> out;
  for (const std::string& part : split(spec, ',')) {
    const std::string entry(trim(part));
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    GP_CHECK_MSG(colon != std::string::npos && colon > 0,
                 "endpoint '" << entry << "' is not host:port");
    long long port = 0;
    bool numeric = true;
    try {
      port = parse_int(entry.substr(colon + 1));
    } catch (const CheckError&) {
      numeric = false;
    }
    GP_CHECK_MSG(numeric && port > 0 && port <= 65535,
                 "endpoint '" << entry << "' has a bad port");
    out.push_back(Endpoint{entry.substr(0, colon), static_cast<int>(port)});
  }
  GP_CHECK_MSG(!out.empty(), "empty endpoint list");
  return out;
}

namespace {

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Verbs safe to issue twice: read-only and cheap enough that a
/// duplicated request is waste, not harm.  reload/shutdown mutate
/// server state; dse doubles minutes of real work.
bool hedgeable_verb(const std::string& line) {
  static const std::unordered_set<std::string> kIdempotent = {
      "predict", "rank",  "analyze", "model_info",
      "stats",   "ping",  "health",  "ready"};
  const std::string trimmed(trim(line));
  const std::size_t sp = trimmed.find_first_of(" \t");
  return kIdempotent.count(trimmed.substr(0, sp)) > 0;
}

}  // namespace

/// Shared with hedge threads via shared_ptr: a losing hedge may still
/// be blocked in its socket timeout when request() returns, so the
/// result slots and health table must outlive the call (and even the
/// client).  Everything here is guarded by `mutex`.
struct FailoverClient::State {
  struct Ep {
    std::uint64_t attempts = 0;
    std::uint64_t failures = 0;
    int consecutive_failures = 0;
    std::int64_t open_until_ms = 0;  // 0 = breaker closed
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Ep> eps;
};

FailoverClient::FailoverClient(std::vector<Endpoint> endpoints,
                               Options options)
    : endpoints_(std::move(endpoints)),
      options_(options),
      state_(std::make_shared<State>()) {
  GP_CHECK_MSG(!endpoints_.empty(), "FailoverClient needs >= 1 endpoint");
  GP_CHECK_MSG(options_.retry.attempts > 0,
               "retry policy needs >= 1 attempt");
  state_->eps.resize(endpoints_.size());
}

FailoverClient::EndpointHealth FailoverClient::health(
    std::size_t index) const {
  GP_CHECK(index < endpoints_.size());
  std::lock_guard<std::mutex> lock(state_->mutex);
  const State::Ep& ep = state_->eps[index];
  EndpointHealth out;
  out.attempts = ep.attempts;
  out.failures = ep.failures;
  out.consecutive_failures = ep.consecutive_failures;
  out.open = ep.open_until_ms != 0 && steady_ms() < ep.open_until_ms;
  return out;
}

std::size_t FailoverClient::pick_endpoint(int attempt) const {
  const std::size_t n = endpoints_.size();
  const std::int64_t now = steady_ms();
  std::lock_guard<std::mutex> lock(state_->mutex);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (static_cast<std::size_t>(attempt) + k) % n;
    const State::Ep& ep = state_->eps[idx];
    // An expired cooldown admits the endpoint again as a probe; the
    // breaker re-opens from record() if the probe fails.
    if (ep.open_until_ms == 0 || now >= ep.open_until_ms) return idx;
  }
  return static_cast<std::size_t>(attempt) % n;
}

void FailoverClient::record(std::size_t index, bool success) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  State::Ep& ep = state_->eps[index];
  ep.attempts += 1;
  if (success) {
    ep.consecutive_failures = 0;
    ep.open_until_ms = 0;
  } else {
    ep.failures += 1;
    ep.consecutive_failures += 1;
    if (options_.endpoint_failure_threshold > 0 &&
        ep.consecutive_failures >= options_.endpoint_failure_threshold)
      ep.open_until_ms = steady_ms() + options_.endpoint_cooldown_ms;
  }
}

std::string FailoverClient::one_request(std::size_t index,
                                        const std::string& line) {
  try {
    TcpClient client(endpoints_[index].host, endpoints_[index].port,
                     options_.client);
    std::string response = client.request(line);
    // Any response — even "overloaded" shedding — means the endpoint
    // is alive; only connect/I-O failures count against its breaker.
    record(index, true);
    return response;
  } catch (const ClientError&) {
    record(index, false);
    throw;
  }
}

std::string FailoverClient::hedged_request(std::size_t primary,
                                           const std::string& line) {
  struct Race {
    std::mutex m;
    std::condition_variable cv;
    int launched = 0;
    int done = 0;
    bool have_winner = false;
    std::string winner;
    std::string first_error;
  };
  auto race = std::make_shared<Race>();
  // Legs are detached — a losing leg may still be blocked in its socket
  // timeout after request() returns — so they own shared_ptr copies of
  // the race and the health table and value copies of everything else.
  std::shared_ptr<State> state = state_;
  const Options opts = options_;
  const auto run_leg = [race, state, opts](Endpoint ep, std::size_t index,
                                           std::string request_line) {
    std::string response;
    std::string error;
    bool ok = false;
    try {
      TcpClient client(ep.host, ep.port, opts.client);
      response = client.request(request_line);
      ok = true;
    } catch (const ClientError& e) {
      error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      State::Ep& health = state->eps[index];
      health.attempts += 1;
      if (ok) {
        health.consecutive_failures = 0;
        health.open_until_ms = 0;
      } else {
        health.failures += 1;
        health.consecutive_failures += 1;
        if (opts.endpoint_failure_threshold > 0 &&
            health.consecutive_failures >= opts.endpoint_failure_threshold)
          health.open_until_ms = steady_ms() + opts.endpoint_cooldown_ms;
      }
    }
    {
      std::lock_guard<std::mutex> lock(race->m);
      race->done += 1;
      if (ok && !race->have_winner) {
        race->have_winner = true;
        race->winner = std::move(response);
      } else if (!ok && race->first_error.empty()) {
        race->first_error = error;
      }
    }
    race->cv.notify_all();
  };

  const auto launch = [&](std::size_t index) {
    {
      std::lock_guard<std::mutex> lock(race->m);
      race->launched += 1;
    }
    std::thread(run_leg, endpoints_[index], index, line).detach();
  };

  launch(primary);
  std::unique_lock<std::mutex> lock(race->m);
  // Wakes early when the primary answers or fails outright — a failed
  // primary fails over immediately instead of sleeping out the delay.
  race->cv.wait_for(lock, std::chrono::milliseconds(options_.hedge_delay_ms),
                    [&] { return race->have_winner || race->done > 0; });
  if (!race->have_winner) {
    // Hedge on the next healthy endpoint that is not the primary.
    std::size_t backup = (primary + 1) % endpoints_.size();
    {
      const std::int64_t now = steady_ms();
      std::lock_guard<std::mutex> state_lock(state_->mutex);
      for (std::size_t k = 1; k < endpoints_.size(); ++k) {
        const std::size_t idx = (primary + k) % endpoints_.size();
        const State::Ep& ep = state_->eps[idx];
        if (ep.open_until_ms == 0 || now >= ep.open_until_ms) {
          backup = idx;
          break;
        }
      }
    }
    lock.unlock();
    launch(backup);
    lock.lock();
  }
  race->cv.wait(lock,
                [&] { return race->have_winner || race->done == race->launched; });
  if (race->have_winner) return std::move(race->winner);
  throw ClientError("hedged request failed on " +
                        std::to_string(race->launched) +
                        " endpoints; first error: " + race->first_error,
                    false);
}

std::string FailoverClient::request(const std::string& line) {
  const bool hedge = options_.hedge && endpoints_.size() > 1 &&
                     hedgeable_verb(line);
  std::mt19937_64 rng(options_.retry.seed != 0 ? options_.retry.seed
                                               : 0x9e3779b97f4a7c15ULL);
  std::string last_error = "no endpoint tried";
  int backoff_ms = options_.retry.base_backoff_ms;
  // The attempt budget is shared across endpoints: attempt k tries the
  // k-th choice the endpoint picker yields, so a two-endpoint client
  // with the default 4 attempts alternates twice, not 4x2 times.
  for (int attempt = 0; attempt < options_.retry.attempts; ++attempt) {
    if (attempt > 0) {
      std::uniform_int_distribution<int> jitter(0, std::max(1, backoff_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(jitter(rng)));
      backoff_ms = std::min(backoff_ms * 2, options_.retry.max_backoff_ms);
    }
    const std::size_t primary = pick_endpoint(attempt);
    try {
      std::string response =
          hedge ? hedged_request(primary, line) : one_request(primary, line);
      if (response.find("\"code\":\"overloaded\"") == std::string::npos)
        return response;
      last_error = "server overloaded";
    } catch (const ClientError& e) {
      last_error = e.what();
    }
  }
  throw ClientError(
      "request failed after " + std::to_string(options_.retry.attempts) +
          " attempts across " + std::to_string(endpoints_.size()) +
          " endpoints; last error: " + last_error,
      false);
}

}  // namespace gpuperf::serve
