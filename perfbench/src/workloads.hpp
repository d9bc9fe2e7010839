// The benchmark's workloads.  Each one turns a seed into a fixed set of
// requests with their expected answers, then issues them in a closed
// loop for a given time, checking every answer against the oracle.
//
//   serve-mix  Zipf-keyed predict/rank over 4 loopback TCP connections
//              against an in-process TcpServer (net + serve).
//   cold-rank  `rank <model>` in-process on emptied caches and a cold
//              DCA memo: the paper's T_est = t_dca + n·t_pm, n = 10.
//   dse-warm   `dse …` sweeps in-process over warm features.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-op outcomes of one measured window, cut into equal time
/// segments.  Each segment yields its own throughput, p50 and p99 from
/// its raw samples.  The window reports, over segments, the quartile at
/// the fast end (kSegmentQuantile), so host interference confined to
/// fewer than three quarters of the segments does not move the figures.
///
/// A workload that repeats a fixed pool of requests from one caller may
/// also record each answer under its request's index (record_best).
/// Then throughput and p50 come from each request's fastest correct
/// answer: interference only ever adds delay, and across dozens of
/// repeats spread over the window every request meets a quiet moment,
/// even when the host is slow for the whole run.
///
/// Such a workload also times calibration_loop_us() after each op
/// (record_calibration).  A host phase that slows every op alike (a busy
/// neighbour on the same core or cache) slows that fixed loop too, so
/// the bests are scaled by the loop's fastest time over the reference
/// kReferenceCalibrationUs: the figures read as on a host where the loop
/// takes that long.
class Window {
 public:
  static constexpr double kSegmentQuantile = 0.25;
  /// calibration_loop_us() at its fastest on a quiet 4-vCPU VM.
  static constexpr double kReferenceCalibrationUs = 100.0;

  struct Segment {
    std::size_t samples = 0;
    std::uint64_t completed = 0;  // ops answered correctly
    double seconds = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };

  /// The window starts now.  `segment_seconds` <= 0 keeps one segment.
  explicit Window(double segment_seconds = 0.0);

  void record(double us, bool ok, const std::string& body);
  /// Note a correct answer to pool request `key` that took `us`.
  void record_best(std::size_t key, double us);
  /// Note one calibration_loop_us() time.
  void record_calibration(double us);
  /// Close the last segment; it is dropped when shorter than half a
  /// segment and others exist.
  void finish();

  const std::vector<Segment>& segments() const { return segments_; }
  std::size_t samples() const;
  // With bests: requests answered / sum of their bests, and the median
  // best, both scaled by host_scale().  Without: the fast-end segment
  // quartiles.
  double throughput() const;  // ops/s
  double p50() const;         // µs
  double p99() const;         // µs, lower segment quartile
  /// Fastest calibration time over the reference; 1 when none was taken.
  double host_scale() const;
  /// How throughput() and p50() were taken, with the sample count.
  std::string basis() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few wrong answers

  // dse response telemetry, summed over answers that carry it.
  std::uint64_t dse_answers = 0;
  std::uint64_t dse_unique_topologies = 0;
  std::uint64_t dse_features_computed = 0;

 private:
  using Clock = std::chrono::steady_clock;
  void close_segment(Clock::time_point now);
  std::vector<double> bests() const;  // of the requests answered

  double segment_seconds_;
  Clock::time_point segment_start_;
  std::vector<double> current_us_;
  std::uint64_t current_ok_ = 0;
  std::vector<Segment> segments_;
  std::vector<double> best_us_;  // per pool request; 0 = no correct answer
  double calibration_min_us_ = 0.0;  // 0 = none taken
  std::size_t calibrations_ = 0;
};

/// Runs a fixed single-threaded loop of integer hashing and random reads
/// and writes over a 512 KiB table; returns its wall time in µs.
double calibration_loop_us();

/// Per-op figures derived in the traced window (stage coverage,
/// unattributed time, dse serialization).
using Derived = std::map<std::string, std::vector<double>>;

/// What a workload runs against.  `tracer` is null in untraced windows.
struct Env {
  gpuperf::serve::ServeSession& session;
  gpuperf::serve::TcpServer* server;
  const Oracle& oracle;
  Tracer* tracer;
  Derived* derived;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual bool needs_server() const { return false; }
  /// Warm-up that is part of set-up (timed with it).
  virtual void warm(gpuperf::serve::ServeSession&) {}
  /// Generate the seeded inputs and their expected answers.
  virtual void prepare(const Oracle& oracle, std::uint64_t seed) = 0;
  /// Issue ops for `seconds`, appending to `out`.
  virtual void run(Env& env, double seconds, Window& out) = 0;

  /// A sample of this workload's request lines and models: the inputs
  /// the traced run replays through each layer's entry points.
  virtual std::vector<std::string> sample_lines() const = 0;
  virtual std::vector<std::string> sample_models() const = 0;
};

/// serve-mix, cold-rank or dse-warm; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// A blocking loopback line client.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  int fd() const { return fd_; }
  /// Send one line (newline appended).  Throws on a socket error.
  void send_line(const std::string& line);
  /// Append received bytes to the buffer; false when the peer closed.
  bool receive();
  /// Pop one complete reply line from the buffer, if any.
  bool pop_line(std::string& line);
  /// send_line + wait for one reply line.
  std::string round_trip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
