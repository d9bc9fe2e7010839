// Deterministic fault injection for the chaos test suite: named sites
// in registry I/O and the DCA pipeline call
// GPUPERF_FAULT_POINT("site"); a test (or the GPUPERF_FAULT environment
// variable) arms a site with an action — throw, timeout, delay or
// corrupt — and the site misbehaves on demand, repeatably.
//
// Compiled in only under GPUPERF_FAULT_INJECTION (a CMake option, ON by
// default so the chaos suite runs in every build).  A disarmed site
// costs one function call and one relaxed atomic load; the healthy-path
// throughput impact is unmeasurable because sites sit at request
// granularity, not in analysis inner loops.
//
// Spec grammar (used by arm_from_spec and $GPUPERF_FAULT):
//   site=action[:param][*count][;site=action...]
// where action is one of
//   throw        the site throws FaultInjected
//   timeout      the site throws AnalysisTimeout
//   delay:MS     the site sleeps MS milliseconds (in 1 ms slices,
//                honoring the caller's Deadline when one is in scope)
//   corrupt      GPUPERF_FAULT_CORRUPT(site) returns true
// and *count fires the action that many times before auto-disarming
// (default: forever).  Example: "dca.compute=delay:100*3;store.put=throw"
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/deadline.hpp"

namespace gpuperf::fault {

enum class Action { kThrow, kTimeout, kDelay, kCorrupt };

struct Spec {
  Action action = Action::kThrow;
  int delay_ms = 0;    // kDelay only
  int remaining = -1;  // fires this many times then disarms; -1 = forever
};

/// What a kThrow site raises — a plain runtime error, so the serving
/// layer classifies it as analysis_failed, not as a timeout.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& site)
      : std::runtime_error("injected fault at " + site) {}
};

void arm(const std::string& site, Spec spec);
void disarm(const std::string& site);
void disarm_all();

/// Times the site fired since the last arm()/disarm_all() for it.
std::uint64_t hits(const std::string& site);

/// Parse the spec grammar above and arm every site in it; throws
/// CheckError on a malformed spec.
void arm_from_spec(const std::string& spec);

/// Serialize every armed site whose name starts with `prefix` back into
/// the spec grammar ("" = all sites).  The sandbox layer ships this
/// snapshot inside each worker request so chaos sites armed in the
/// parent *after* a worker forked still fire inside that worker.
/// Firing counts are snapshotted too, but consumption happens in the
/// worker — `*count` specs are therefore per-request in isolated mode.
std::string armed_spec(const std::string& prefix = "");

/// Hold the fault registry lock across a fork() so the child never
/// inherits the registry mid-mutation (another thread rebalancing the
/// site map at the exact fork instant).  The forking thread takes this
/// guard, forks, then drops it; the child calls child_after_fork().
std::unique_lock<std::mutex> registry_fork_lock();

/// Reset the fault registry in a freshly forked child: reinitializes
/// the registry mutex (held by the forking parent thread, so the
/// child's copy is locked forever) and clears every armed site.  Must
/// be called before the child touches any fault API, and only from a
/// single-threaded child.
void child_after_fork();

/// A fault point.  Fast path (nothing armed anywhere): one relaxed
/// atomic load.  `deadline` lets a kDelay site respect the caller's
/// budget, turning the delay into a genuine deadline-driven timeout.
void point(const std::string& site, const Deadline* deadline = nullptr);

/// True when `site` is armed with kCorrupt (and consumes one firing);
/// the call site then flips bits / drops data itself.
bool corrupt(const std::string& site);

/// Non-throwing consumption for call sites that cannot unwind (the
/// event-loop syscall shim): consumes one firing of `site` regardless
/// of action and returns the Spec.  Returns false when the site is not
/// armed.  The caller interprets the action itself — e.g. net::io maps
/// kThrow to a forced ECONNRESET instead of raising.
bool consume_nonthrowing(const std::string& site, Spec& out);

/// RAII arming for tests: disarms the site on scope exit.
class ScopedFault {
 public:
  ScopedFault(std::string site, Spec spec) : site_(std::move(site)) {
    arm(site_, spec);
  }
  ~ScopedFault() { disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string site_;
};

}  // namespace gpuperf::fault

#ifdef GPUPERF_FAULT_INJECTION
#define GPUPERF_FAULT_POINT(site) ::gpuperf::fault::point(site)
#define GPUPERF_FAULT_POINT_D(site, deadline_ptr) \
  ::gpuperf::fault::point(site, deadline_ptr)
#define GPUPERF_FAULT_CORRUPT(site) ::gpuperf::fault::corrupt(site)
#else
#define GPUPERF_FAULT_POINT(site) \
  do {                            \
  } while (false)
#define GPUPERF_FAULT_POINT_D(site, deadline_ptr) \
  do {                                            \
  } while (false)
#define GPUPERF_FAULT_CORRUPT(site) false
#endif
