#include "trace.hpp"

#include <fstream>

namespace perfbench {

namespace {

double micros(Tracer::Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

std::uint32_t Tracer::intern(std::string_view name) {
  const int found = find_name(name);
  if (found >= 0) return static_cast<std::uint32_t>(found);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

int Tracer::find_name(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  return -1;
}

int Tracer::begin(std::string_view name, std::uint64_t op, int parent) {
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.op = op;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

void Tracer::record(std::string_view name, std::uint64_t op,
                    Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = intern(name);
  span.op = op;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

std::vector<double> Tracer::child_us() const {
  // Children of one span run one after another inside it, so the part
  // of the parent they cover is the sum of their durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += micros(s.end - s.start);
  return covered;
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  std::vector<double> out;
  const int id = find_name(name);
  if (id < 0) return out;
  const std::vector<double> covered = child_us();
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == static_cast<std::uint32_t>(id))
      out.push_back(micros(spans_[i].end - spans_[i].start) - covered[i]);
  return out;
}

double Tracer::duration_us(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return micros(s.end - s.start);
}

bool Tracer::has(std::string_view name) const {
  const int id = find_name(name);
  if (id < 0) return false;
  for (const Span& s : spans_)
    if (s.name == static_cast<std::uint32_t>(id)) return true;
  return false;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,op,parent,start_ns,end_ns\n";
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (const Span& s : spans_)
    out << names_[s.name] << ',' << s.op << ',' << s.parent << ','
        << ns(s.start) << ',' << ns(s.end) << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
