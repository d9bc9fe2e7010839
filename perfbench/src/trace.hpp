// Span recorder of the traced run.  It lives only in the benchmark: each
// span wraps one call the benchmark makes into a layer's public entry
// point, so no program file needs instrumenting.  Spans stay in memory
// and are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Open a span; `parent` is the index of the enclosing span or -1.
  /// Returns the new span's index.
  int begin(std::string_view name, std::uint64_t op, int parent = -1);
  void end(int span);

  /// Record a span whose endpoints were taken elsewhere (the load
  /// generator's send and reply times).
  void record(std::string_view name, std::uint64_t op, Clock::time_point start,
              Clock::time_point end);

  /// Self time — duration minus the time its child spans cover — of
  /// every closed span with this name, in µs, in recording order.
  std::vector<double> self_us(std::string_view name) const;

  /// Duration of one closed span, µs.
  double duration_us(int span) const;

  bool has(std::string_view name) const;

  /// Write every span as CSV (name,op,parent,start_ns,end_ns), times
  /// relative to the first span.  Returns false when the file cannot be
  /// written.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::uint32_t intern(std::string_view name);
  int find_name(std::string_view name) const;
  std::vector<double> child_us() const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span: opens in the constructor, closes in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t op,
             int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
