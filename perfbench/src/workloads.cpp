#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>

#include "cnn/static_analyzer.hpp"
#include "cnn/zoo.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/features.hpp"
#include "dse/constraints.hpp"
#include "gpu/device_db.hpp"
#include "json_flat.hpp"
#include "ptx/codegen.hpp"
#include "ptx/counter.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using gpuperf::Rng;
using gpuperf::ptx::InstructionCounter;

namespace {

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double calibration_loop_us() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 17, 1u);
  const Clock::time_point t0 = Clock::now();
  std::uint32_t x = 12345u, acc = 0u;
  double chain = 1.0;  // a serial floating-point dependency
  for (int i = 0; i < 40000; ++i) {
    x = x * 1664525u + 1013904223u;  // LCG: a fixed pseudo-random walk
    std::uint32_t& slot = table[x >> 15];
    acc += slot;
    slot = acc ^ x;
    chain = chain * 1.0000001 + 1e-9 * static_cast<double>(acc & 255u);
  }
  // The table outlives the call, so neither the loop nor the chain is
  // optimized away.
  table[0] += static_cast<std::uint32_t>(chain);
  return micros_between(t0, Clock::now());
}

Window::Window(double segment_seconds)
    : segment_seconds_(segment_seconds), segment_start_(Clock::now()) {}

void Window::record(double us, bool ok, const std::string& body) {
  ++attempted;
  current_us_.push_back(us);
  if (ok) {
    ++current_ok_;
  } else {
    ++failed;
    if (errors.size() < 3) errors.push_back(body.substr(0, 400));
  }
  if (segment_seconds_ <= 0.0) return;
  const Clock::time_point now = Clock::now();
  if (std::chrono::duration<double>(now - segment_start_).count() >=
      segment_seconds_)
    close_segment(now);
}

void Window::close_segment(Clock::time_point now) {
  const Summary s = summarize(std::move(current_us_));
  segments_.push_back(
      {s.n, current_ok_,
       std::chrono::duration<double>(now - segment_start_).count(), s.p50,
       s.p99});
  current_us_.clear();
  current_ok_ = 0;
  segment_start_ = now;
}

void Window::finish() {
  const Clock::time_point now = Clock::now();
  const double open_s =
      std::chrono::duration<double>(now - segment_start_).count();
  if (current_us_.empty()) return;
  if (segments_.empty() || open_s >= 0.5 * segment_seconds_) {
    close_segment(now);
  } else {
    current_us_.clear();
    current_ok_ = 0;
  }
}

void Window::record_best(std::size_t key, double us) {
  if (key >= best_us_.size()) best_us_.resize(key + 1, 0.0);
  double& best = best_us_[key];
  if (best == 0.0 || us < best) best = us;
}

void Window::record_calibration(double us) {
  ++calibrations_;
  if (calibration_min_us_ == 0.0 || us < calibration_min_us_)
    calibration_min_us_ = us;
}

double Window::host_scale() const {
  return calibration_min_us_ > 0.0
             ? calibration_min_us_ / kReferenceCalibrationUs
             : 1.0;
}

std::vector<double> Window::bests() const {
  std::vector<double> v;
  for (const double us : best_us_)
    if (us > 0.0) v.push_back(us);
  return v;
}

std::size_t Window::samples() const {
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.samples;
  return n;
}

// Interference from other tenants of the host only ever slows a
// segment, so a run reports the segment quartile at the fast end.
double Window::throughput() const {
  const std::vector<double> best = bests();
  if (!best.empty())
    return 1e6 * static_cast<double>(best.size()) /
           std::accumulate(best.begin(), best.end(), 0.0) * host_scale();
  std::vector<double> v;
  for (const Segment& s : segments_)
    v.push_back(s.seconds > 0 ? static_cast<double>(s.completed) / s.seconds
                              : 0.0);
  return percentile(v, 1.0 - kSegmentQuantile);
}

double Window::p50() const {
  const std::vector<double> best = bests();
  if (!best.empty()) return percentile(best, 0.5) / host_scale();
  std::vector<double> v;
  for (const Segment& s : segments_) v.push_back(s.p50);
  return percentile(v, kSegmentQuantile);
}

double Window::p99() const {
  std::vector<double> v;
  for (const Segment& s : segments_) v.push_back(s.p99);
  return percentile(v, kSegmentQuantile);
}

std::string Window::basis() const {
  const std::string n = ", n=" + std::to_string(samples());
  const std::size_t pool = bests().size();
  if (pool > 0) {
    char scale[160];
    std::snprintf(scale, sizeof(scale),
                  ", scaled by host speed %.4g (calibration loop at best %.4g"
                  " us of %zu, reference %g us)",
                  host_scale(), calibration_min_us_, calibrations_,
                  kReferenceCalibrationUs);
    return "fastest correct answer to each of " + std::to_string(pool) +
           " pool requests" + n + scale;
  }
  return "fast-end quartile of " + std::to_string(segments_.size()) +
         " segments" + n;
}

// ---- loopback client ----------------------------------------------------

LineClient::LineClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to loopback port " +
                             std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send_line(const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
}

bool LineClient::receive() {
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

bool LineClient::pop_line(std::string& line) {
  const std::size_t end = buffer_.find('\n');
  if (end == std::string::npos) return false;
  line.assign(buffer_, 0, end);
  buffer_.erase(0, end + 1);
  return true;
}

std::string LineClient::round_trip(const std::string& line) {
  send_line(line);
  std::string reply;
  while (!pop_line(reply))
    if (!receive()) throw std::runtime_error("server closed the connection");
  return reply;
}

namespace {

// ---- traced replays -------------------------------------------------------

/// Cold-rank stage replay of one model: times zoo::build,
/// StaticAnalyzer::analyze, CodeGenerator::compile,
/// InstructionCounter::count (cold memo), FeatureExtractor::compute (cold
/// memo) and ten PerformanceEstimator::predict calls, and derives the
/// stage coverage of `op_us` (the cold `rank` it explains).
void stage_probe(Env& env, const std::string& model, double op_us,
                 std::uint64_t op) {
  Tracer& t = *env.tracer;
  const gpuperf::cnn::StaticAnalyzer analyzer;
  const gpuperf::ptx::CodeGenerator codegen;
  const InstructionCounter counter;
  const gpuperf::core::FeatureExtractor extractor;
  const auto estimator = env.session.estimator_ptr();

  const ScopedSpan replay(t, "replay.stages", op);
  // t_dca's parts (analyze, compile, count) plus n·t_pm.  core.dca is
  // the same work as the first three, so it is not added again.
  std::vector<int> staged;
  staged.push_back(t.begin("cnn.build", op, replay.id()));
  const gpuperf::cnn::Model cnn_model = gpuperf::cnn::zoo::build(model);
  t.end(staged.back());
  {
    const ScopedSpan span(t, "cnn.analyze", op, replay.id());
    staged.push_back(span.id());
    (void)analyzer.analyze(cnn_model);
  }
  gpuperf::ptx::CompiledModel compiled;
  {
    const ScopedSpan span(t, "ptx.compile", op, replay.id());
    staged.push_back(span.id());
    compiled = codegen.compile(cnn_model);
  }
  InstructionCounter::reset_memo();
  {
    const ScopedSpan span(t, "ptx.count", op, replay.id());
    staged.push_back(span.id());
    (void)counter.count(compiled);
  }
  InstructionCounter::reset_memo();
  gpuperf::core::ModelFeatures features;
  {
    const ScopedSpan span(t, "core.dca", op, replay.id());
    features = extractor.compute(cnn_model);
  }
  for (const gpuperf::gpu::DeviceSpec* device : env.oracle.devices()) {
    const ScopedSpan span(t, "core.predict", op, replay.id());
    staged.push_back(span.id());
    (void)estimator->predict(features, *device);
  }
  double staged_us = 0.0;
  for (const int span : staged) staged_us += t.duration_us(span);
  (*env.derived)["stage.coverage"].push_back(staged_us / op_us);
  (*env.derived)["serve.unattributed"].push_back(op_us - staged_us);
}

/// dse replay of one request line: times parse_request,
/// ServeSession::sweep and the ranking functions, and derives the
/// serialization time of `op_us` (the handle_line it explains).
void dse_probe(Env& env, const std::string& line, double op_us,
               std::uint64_t op) {
  Tracer& t = *env.tracer;
  const ScopedSpan replay(t, "replay.dse", op);
  gpuperf::serve::Request request;
  int parse = -1;
  {
    const ScopedSpan span(t, "serve.parse_request", op, replay.id());
    parse = span.id();
    request = gpuperf::serve::parse_request(line);
  }
  const gpuperf::dse::SweepRequest sweep_request = sweep_request_from(request);
  gpuperf::dse::SweepResult result;
  int sweep = -1;
  {
    const ScopedSpan span(t, "dse.sweep", op, replay.id());
    sweep = span.id();
    result = env.session.sweep(sweep_request);
  }
  const std::vector<std::string> devices = sweep_request.devices.empty()
                                               ? gpuperf::gpu::dse_devices()
                                               : sweep_request.devices;
  std::vector<gpuperf::dse::DeviceCost> costs;
  for (const std::string& name : devices) {
    const gpuperf::gpu::DeviceSpec& spec = gpuperf::gpu::device(name);
    costs.push_back({spec.has_cost_usd() ? spec.cost_usd : -1.0});
  }
  {
    const ScopedSpan span(t, "dse.rank", op, replay.id());
    auto summaries = gpuperf::dse::summarize_cells(
        result.cells, devices, costs, sweep_request.constraints);
    gpuperf::dse::mark_pareto(summaries);
    gpuperf::dse::rank_summaries(summaries, sweep_request.constraints);
  }
  (*env.derived)["dse.serialize"].push_back(op_us - t.duration_us(sweep) -
                                            t.duration_us(parse));
}

// ---- serve-mix ------------------------------------------------------------

class ServeMix final : public Workload {
 public:
  static constexpr int kConnections = 4;
  static constexpr std::size_t kPoolSize = 1 << 16;
  static constexpr double kRankShare = 0.10;
  static constexpr double kZipfS = 1.0;

  bool needs_server() const override { return true; }

  void warm(gpuperf::serve::ServeSession& session) override {
    // Every model's DCA features, so no DCA runs in the timed window.
    const std::string device = gpuperf::gpu::device_database().front().name;
    for (const auto& entry : gpuperf::cnn::zoo::all_models())
      session.handle_line("predict " + entry.name + " " + device);
  }

  void prepare(const Oracle& oracle, std::uint64_t seed) override {
    const std::size_t n_models = oracle.models().size();
    const std::size_t n_devices = oracle.devices().size();
    n_devices_ = n_devices;
    const std::size_t n_keys = n_models * n_devices;
    models_ = oracle.models();
    for (std::size_t m = 0; m < n_models; ++m) {
      rank_lines_.push_back("rank " + oracle.models()[m]);
      rank_bodies_.push_back(oracle.rank_body(m));
      for (std::size_t d = 0; d < n_devices; ++d) {
        predict_lines_.push_back("predict " + oracle.models()[m] + " " +
                                 oracle.devices()[d]->name);
        predict_bodies_.push_back(oracle.predict_body(m, d, false));
        predict_bodies_.push_back(oracle.predict_body(m, d, true));
      }
    }
    // Zipf over the (model, device) keys: a seeded permutation decides
    // which key holds which popularity rank.
    Rng rng(seed);
    std::vector<std::uint32_t> key_of_rank(n_keys);
    std::iota(key_of_rank.begin(), key_of_rank.end(), 0u);
    rng.shuffle(key_of_rank);
    std::vector<double> cdf(n_keys);
    double total = 0.0;
    for (std::size_t r = 0; r < n_keys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf[r] = total;
    }
    pool_.resize(kPoolSize);
    for (std::uint32_t& entry : pool_) {
      const double u = rng.uniform() * total;
      const std::size_t rank = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
          n_keys - 1);
      const bool is_rank = rng.uniform() < kRankShare;
      entry = key_of_rank[rank] << 1 | (is_rank ? 1u : 0u);
    }
  }

  void run(Env& env, double seconds, Window& out) override {
    struct Conn {
      std::unique_ptr<LineClient> client;
      std::uint32_t entry = 0;
      std::uint64_t op = 0;
      Clock::time_point sent;
      bool busy = false;
    };
    std::array<Conn, kConnections> conns;
    for (Conn& c : conns)
      c.client = std::make_unique<LineClient>(env.server->port());

    const Clock::time_point stop = deadline_after(seconds);
    const auto send_next = [&](Conn& c) {
      c.entry = pool_[cursor_++ % pool_.size()];
      c.op = op_++;
      c.sent = Clock::now();
      c.client->send_line(line_of(c.entry));
      c.busy = true;
    };
    for (Conn& c : conns) send_next(c);

    std::array<pollfd, kConnections> fds{};
    std::string reply;
    while (std::any_of(conns.begin(), conns.end(),
                       [](const Conn& c) { return c.busy; })) {
      for (int i = 0; i < kConnections; ++i) {
        fds[i].fd = conns[i].busy ? conns[i].client->fd() : -1;
        fds[i].events = POLLIN;
        fds[i].revents = 0;
      }
      const int ready = ::poll(fds.data(), kConnections, 1000);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) throw std::runtime_error("poll failed");
      if (ready == 0 && Clock::now() > stop + std::chrono::seconds(10)) {
        for (Conn& c : conns)
          if (c.busy) out.record(0.0, false, "no reply within 10 s");
        break;
      }
      for (int i = 0; i < kConnections; ++i) {
        if (fds[i].revents == 0) continue;
        Conn& c = conns[i];
        if (!c.client->receive()) {
          out.record(0.0, false, "connection closed by the server");
          c.busy = false;
          continue;
        }
        if (!c.client->pop_line(reply)) continue;
        const Clock::time_point now = Clock::now();
        out.record(micros_between(c.sent, now), matches(c.entry, reply),
                   reply);
        if (env.tracer) env.tracer->record("op", c.op, c.sent, now);
        c.busy = false;
        if (now < stop) send_next(c);
      }
    }
  }

  std::vector<std::string> sample_lines() const override {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < 400 && i < pool_.size(); ++i)
      lines.push_back(line_of(pool_[i]));
    return lines;
  }

  std::vector<std::string> sample_models() const override {
    std::set<std::string> models;
    for (std::size_t i = 0; i < 400 && i < pool_.size(); ++i)
      models.insert(models_[(pool_[i] >> 1) / n_devices_]);
    return {models.begin(), models.end()};
  }

 private:
  const std::string& line_of(std::uint32_t entry) const {
    const std::uint32_t key = entry >> 1;
    return (entry & 1u) ? rank_lines_[key / n_devices_] : predict_lines_[key];
  }

  bool matches(std::uint32_t entry, const std::string& reply) const {
    const std::uint32_t key = entry >> 1;
    if (entry & 1u) return reply == rank_bodies_[key / n_devices_];
    return reply == predict_bodies_[2 * key] ||
           reply == predict_bodies_[2 * key + 1];
  }

  std::size_t n_devices_ = 1;
  std::vector<std::string> models_;
  std::vector<std::string> predict_lines_, rank_lines_;
  std::vector<std::string> predict_bodies_, rank_bodies_;
  std::vector<std::uint32_t> pool_;
  std::size_t cursor_ = 0;
  std::uint64_t op_ = 0;
};

// ---- cold-rank ------------------------------------------------------------

class ColdRank final : public Workload {
 public:
  void prepare(const Oracle& oracle, std::uint64_t seed) override {
    rng_ = Rng(seed);
    for (std::size_t m = 0; m < oracle.models().size(); ++m) {
      models_.push_back(oracle.models()[m]);
      bodies_.push_back(oracle.rank_body(m));
    }
  }

  void run(Env& env, double seconds, Window& out) override {
    const Clock::time_point stop = deadline_after(seconds);
    while (Clock::now() < stop) {
      const std::size_t m = next_model();
      const std::string line = "rank " + models_[m];
      // Outside the timed region: every op sees a service that has
      // never analyzed this CNN.
      env.session.reset_caches();
      InstructionCounter::reset_memo();
      std::string body;
      double us = 0.0;
      const std::uint64_t op = op_++;
      if (env.tracer) {
        int span = -1;
        {
          const ScopedSpan s(*env.tracer, "op", op);
          span = s.id();
          body = env.session.handle_line(line);
        }
        us = env.tracer->duration_us(span);
        stage_probe(env, models_[m], us, op);
      } else {
        const Clock::time_point t0 = Clock::now();
        body = env.session.handle_line(line);
        us = micros_between(t0, Clock::now());
      }
      const bool ok = body == bodies_[m];
      out.record_calibration(calibration_loop_us());
      out.record(us, ok, body);
      if (ok) out.record_best(m, us);
    }
  }

  std::vector<std::string> sample_lines() const override {
    std::vector<std::string> lines;
    for (const std::string& m : models_) lines.push_back("rank " + m);
    return lines;
  }
  std::vector<std::string> sample_models() const override { return models_; }

 private:
  std::size_t next_model() {
    // A seeded shuffle of the zoo, pass after pass.
    if (pos_ == order_.size()) {
      order_.resize(models_.size());
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      rng_.shuffle(order_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

  Rng rng_;
  std::vector<std::string> models_, bodies_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
  std::uint64_t op_ = 0;
};

// ---- dse-warm -------------------------------------------------------------

class DseWarm final : public Workload {
 public:
  static constexpr std::size_t kPoolSize = 256;
  static constexpr std::size_t kModelsPerSweep = 8;
  static constexpr double kInfeasibleShare = 0.125;

  void warm(gpuperf::serve::ServeSession& session) override {
    session.handle_line("dse all");
  }

  void prepare(const Oracle& oracle, std::uint64_t seed) override {
    Rng rng(seed ^ 0x6473652d7761726dULL);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      std::vector<std::string> models;
      for (std::size_t k = 0; k < kModelsPerSweep; ++k) {
        const std::string& m =
            oracle.models()[rng.uniform_index(oracle.models().size())];
        models.push_back(m);
        models_.insert(m);
      }
      const std::string base = "dse " + gpuperf::join(models, ",");
      // Bounds are drawn around the unconstrained sweep's own figures so
      // most requests keep a few feasible devices.
      const gpuperf::dse::SweepResult open = oracle.reference_sweep(
          sweep_request_from(gpuperf::serve::parse_request(base)));
      std::string line = base;
      if (rng.uniform() < kInfeasibleShare) {
        double fastest = open.ranking.front().worst_latency_ms;
        for (const auto& s : open.ranking)
          fastest = std::min(fastest, s.worst_latency_ms);
        line += " --max-latency-ms=" + format_double(0.5 * fastest);
      } else {
        const auto& pick =
            open.ranking[rng.uniform_index(open.ranking.size())];
        line += " --max-latency-ms=" +
                format_double(pick.worst_latency_ms * rng.uniform(1.0, 1.5));
        if (rng.uniform() < 0.5)
          line += " --max-power-w=" +
                  format_double(pick.peak_power_w * rng.uniform(1.0, 1.3));
        line += " --w-latency=" + format_double(rng.uniform(0.2, 1.0)) +
                " --w-power=" + format_double(rng.uniform(0.0, 1.0));
      }
      lines_.push_back(line);
      bodies_.push_back(oracle.dse_body(line));
    }
  }

  void run(Env& env, double seconds, Window& out) override {
    const Clock::time_point stop = deadline_after(seconds);
    while (Clock::now() < stop) {
      const std::size_t i = cursor_++ % lines_.size();
      const std::uint64_t op = op_++;
      std::string body;
      double us = 0.0;
      if (env.tracer) {
        int span = -1;
        {
          const ScopedSpan s(*env.tracer, "op", op);
          span = s.id();
          body = env.session.handle_line(lines_[i]);
        }
        us = env.tracer->duration_us(span);
        dse_probe(env, lines_[i], us, op);
      } else {
        const Clock::time_point t0 = Clock::now();
        body = env.session.handle_line(lines_[i]);
        us = micros_between(t0, Clock::now());
      }
      const bool ok = dse_matches(bodies_[i], body);
      out.record_calibration(calibration_loop_us());
      out.record(us, ok, body);
      if (ok) out.record_best(i, us);
      if (ok && body.rfind("{\"ok\":true", 0) == 0) {
        const FlatJson json = flatten_json(body);
        ++out.dse_answers;
        out.dse_unique_topologies += static_cast<std::uint64_t>(
            number_at(json, "unique_topologies").value_or(0));
        out.dse_features_computed += static_cast<std::uint64_t>(
            number_at(json, "features_computed").value_or(0));
      }
    }
  }

  std::vector<std::string> sample_lines() const override { return lines_; }
  std::vector<std::string> sample_models() const override {
    return {models_.begin(), models_.end()};
  }

 private:
  std::vector<std::string> lines_, bodies_;
  std::set<std::string> models_;
  std::size_t cursor_ = 0;
  std::uint64_t op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "serve-mix") return std::make_unique<ServeMix>();
  if (name == "cold-rank") return std::make_unique<ColdRank>();
  if (name == "dse-warm") return std::make_unique<DseWarm>();
  return nullptr;
}

}  // namespace perfbench
