// Minimal blocking client for the gpuperf serve line protocol: send a
// request line, read the single JSON response line.  Used by the
// `gpuperf client` subcommand, the server tests and the CI smoke test.
//
// Every socket operation is bounded: connect via non-blocking
// connect+poll, send/recv via SO_SNDTIMEO/SO_RCVTIMEO — a hung server
// surfaces as a ClientError with timed_out() set instead of blocking
// the CLI forever.  request_with_retry() adds exponential backoff with
// jitter on top for transient failures and `overloaded` shedding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/limits.hpp"

namespace gpuperf::serve {

/// Connection or I/O failure talking to a server.  Derives from
/// CheckError (a dead or hung peer is a caller-visible condition, not
/// an internal bug); timed_out() distinguishes "a configured timeout
/// expired" from "the peer refused or dropped the connection".
class ClientError : public CheckError {
 public:
  ClientError(const std::string& what, bool timed_out)
      : CheckError(what), timed_out_(timed_out) {}
  bool timed_out() const { return timed_out_; }

 private:
  bool timed_out_;
};

class TcpClient {
 public:
  struct Options {
    /// 0 disables the corresponding timeout (fully blocking).
    int connect_timeout_ms = 5000;
    int io_timeout_ms = 30000;
    /// Longest accepted response line; a peer that streams more without
    /// a newline gets a ClientError instead of growing the buffer
    /// without bound (docs/ROBUSTNESS.md).
    std::size_t max_response_bytes =
        InputLimits::defaults().max_response_bytes;
  };

  /// Connects immediately; throws ClientError if the server is
  /// unreachable or the connect timeout expires.
  TcpClient(const std::string& host, int port, Options options);
  TcpClient(const std::string& host, int port)
      : TcpClient(host, port, Options()) {}
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Send one request line (the trailing newline is added here) and
  /// block for the response line, returned without its newline.
  /// Throws ClientError on a drop, an I/O timeout, or a response line
  /// past max_response_bytes.
  std::string request(const std::string& line);

 private:
  void send_all(const std::string& data);

  int fd_ = -1;
  std::size_t max_response_bytes_ = 0;
  std::string buffer_;  // bytes read past the previous response
};

/// Backoff schedule for request_with_retry.
struct RetryPolicy {
  int attempts = 4;
  /// Sleep before retry k is uniform in [0, base * 2^(k-1)], capped at
  /// max — full jitter, so synchronized clients spread out instead of
  /// hammering a recovering server in lockstep.
  int base_backoff_ms = 100;
  int max_backoff_ms = 2000;
  /// Jitter source; 0 picks a fixed default (still deterministic).
  std::uint64_t seed = 0;
};

/// One request over a fresh connection, retried per `policy` on
/// connect failure, I/O timeout, dropped connection, or an
/// {"code":"overloaded"} response.  Returns the first non-overloaded
/// response; throws ClientError when every attempt fails.
std::string request_with_retry(const std::string& host, int port,
                               const std::string& line,
                               RetryPolicy policy = {},
                               TcpClient::Options options = {});

/// One server address in a failover set.
struct Endpoint {
  std::string host;
  int port = 0;
};

/// Parse a comma-separated "host:port,host:port" list (the client's
/// --endpoints flag).  GP_CHECK-fails on an empty list, a missing
/// colon, or a port outside [1, 65535].
std::vector<Endpoint> parse_endpoints(const std::string& spec);

/// Multi-endpoint client with failover: each request walks the
/// endpoint list in order, skipping endpoints whose per-endpoint
/// breaker is open (too many consecutive failures → a cooldown before
/// they are retried), under a single retry budget shared across
/// endpoints.  Optionally hedges idempotent verbs: if the primary
/// endpoint has not answered within hedge_delay_ms a duplicate request
/// races on the next healthy endpoint and the first response wins —
/// never for state-changing verbs (reload, shutdown) or the heavy dse
/// sweep, which would double real work.
///
/// Thread-compatible, not thread-safe: one FailoverClient per thread.
class FailoverClient {
 public:
  struct Options {
    TcpClient::Options client;
    /// Total attempt/backoff budget per request(), shared across every
    /// endpoint tried — failover does not multiply retries.
    RetryPolicy retry;
    /// Consecutive failures that open an endpoint's breaker (0 = never
    /// skip an endpoint).
    int endpoint_failure_threshold = 3;
    /// How long an open endpoint is skipped before it is probed again.
    int endpoint_cooldown_ms = 2000;
    /// Hedge idempotent requests across two endpoints.
    bool hedge = false;
    /// How long the primary gets before the hedge fires.
    int hedge_delay_ms = 250;
  };

  FailoverClient(std::vector<Endpoint> endpoints, Options options);

  /// One request with failover (and hedging when enabled).  Throws
  /// ClientError once the retry budget is exhausted.
  std::string request(const std::string& line);

  /// Per-endpoint health snapshot, for tests and --verbose output.
  struct EndpointHealth {
    std::uint64_t attempts = 0;
    std::uint64_t failures = 0;
    int consecutive_failures = 0;
    bool open = false;
  };
  EndpointHealth health(std::size_t index) const;
  std::size_t endpoint_count() const { return endpoints_.size(); }

 private:
  struct State;  // shared with detached hedge threads

  /// The k-th endpoint choice for this request: healthy endpoints in
  /// list order, rotated by attempt so retries fail over instead of
  /// hammering the same peer; an all-open list degrades to plain
  /// rotation (an open breaker is a hint, not a hard block).
  std::size_t pick_endpoint(int attempt) const;
  std::string one_request(std::size_t index, const std::string& line);
  std::string hedged_request(std::size_t primary, const std::string& line);
  void record(std::size_t index, bool success);

  std::vector<Endpoint> endpoints_;
  Options options_;
  std::shared_ptr<State> state_;
};

}  // namespace gpuperf::serve
