// Cooperative cancellation for bounded analysis: a Deadline couples a
// wall-clock budget with an optional step budget and is threaded by
// value through the slicer, symbolic executor, interpreter and feature
// extractor.  Analysis loops call charge() per unit of work; when either
// budget is exhausted the analysis aborts with a typed AnalysisTimeout
// instead of hanging — the serving layer turns that into a machine-
// readable `analysis_timeout` or a degraded fallback prediction.
//
// A default-constructed Deadline is unlimited and charge() is a single
// branch, so every existing call site pays (nearly) nothing.  The clock
// is only consulted every kTimeCheckInterval charges: steady_clock::now
// costs ~20 ns, analysis steps ~1 ns, so hot loops keep their speed
// while expiry is still detected within a fraction of a millisecond.
#pragma once

#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gpuperf {

/// Typed abort of a bounded analysis: the deadline or step budget of a
/// Deadline was exhausted.  Deliberately NOT a CheckError — callers that
/// degrade gracefully must be able to tell "took too long" apart from
/// "the input is outside the supported fragment".
class AnalysisTimeout : public std::runtime_error {
 public:
  explicit AnalysisTimeout(const std::string& what)
      : std::runtime_error(what) {}
};

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited: never expires, charge() never throws.
  Deadline() = default;

  static Deadline after(Clock::duration budget) {
    Deadline out;
    out.timed_ = true;
    out.expiry_ = Clock::now() + budget;
    return out;
  }
  static Deadline after_ms(std::int64_t ms) {
    return after(std::chrono::milliseconds(ms));
  }

  /// Cap the number of charge() units on top of (or instead of) the
  /// wall-clock budget.  Returns *this for chaining.
  Deadline& with_step_budget(std::uint64_t steps) {
    step_budget_ = steps;
    return *this;
  }

  bool unlimited() const { return !timed_ && step_budget_ == kNoBudget; }
  bool timed() const { return timed_; }
  Clock::time_point expiry() const { return expiry_; }

  /// The configured step budget, 0 when unlimited — the sandbox layer
  /// forwards it to worker processes alongside the wall budget.
  std::uint64_t step_budget() const {
    return step_budget_ == kNoBudget ? 0 : step_budget_;
  }

  /// Wall-clock milliseconds left (clamped at 0); a large sentinel when
  /// untimed.  Useful for retry hints and for slicing waits.
  std::int64_t remaining_ms() const {
    if (!timed_) return kForeverMs;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        expiry_ - Clock::now());
    return left.count() > 0 ? left.count() : 0;
  }

  bool expired() const {
    if (steps_ > step_budget_) return true;
    return timed_ && Clock::now() >= expiry_;
  }

  /// Account `n` units of analysis work; throws AnalysisTimeout when a
  /// budget is exhausted.  `site` names the analysis for the message.
  void charge(const char* site, std::uint64_t n = 1) const {
    if (unlimited()) return;
    steps_ += n;
    if (steps_ > step_budget_) raise(site, "step budget");
    if (timed_ && steps_ >= next_time_check_) {
      next_time_check_ = steps_ + kTimeCheckInterval;
      if (Clock::now() >= expiry_) raise(site, "deadline");
    }
  }

  /// Unconditional check (no step accounting, always consults the
  /// clock).  For coarse checkpoints between analysis phases.
  void check(const char* site) const {
    if (steps_ > step_budget_) raise(site, "step budget");
    if (timed_ && Clock::now() >= expiry_) raise(site, "deadline");
  }

  /// Steps charged so far (0 for unlimited deadlines — they skip the
  /// accounting entirely).
  std::uint64_t steps_charged() const { return steps_; }

 private:
  static constexpr std::uint64_t kNoBudget = UINT64_MAX;
  static constexpr std::uint64_t kTimeCheckInterval = 4096;
  static constexpr std::int64_t kForeverMs = INT64_MAX / 2;

  [[noreturn]] void raise(const char* site, const char* which) const {
    std::ostringstream os;
    os << "analysis " << which << " exceeded in " << site << " after "
       << steps_ << " steps";
    throw AnalysisTimeout(os.str());
  }

  bool timed_ = false;
  Clock::time_point expiry_{};
  std::uint64_t step_budget_ = kNoBudget;
  // Mutable so a `const Deadline&` parameter can account work: the
  // budget is logically part of the *request*, not of the analysis.
  mutable std::uint64_t steps_ = 0;
  mutable std::uint64_t next_time_check_ = kTimeCheckInterval;
};

}  // namespace gpuperf
