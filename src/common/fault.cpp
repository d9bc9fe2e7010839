#include "common/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <thread>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace gpuperf::fault {

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, Spec> sites;
  std::map<std::string, std::uint64_t> hit_counts;
  // Mirrors sites.size() so point() can bail without the mutex.
  std::atomic<std::size_t> armed_count{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// $GPUPERF_FAULT is parsed exactly once, before the first lookup, so
/// env-armed sites behave identically to programmatically armed ones.
void ensure_env_parsed() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    if (const char* spec = std::getenv("GPUPERF_FAULT"))
      if (*spec != '\0') arm_from_spec(spec);
  });
}

/// Looks up `site`, consumes one firing, returns the action to take.
/// Returns false when the site is not armed (or its count ran out).
bool consume(const std::string& site, bool corrupt_only, Spec& out) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.sites.find(site);
  if (it == r.sites.end()) return false;
  if (corrupt_only != (it->second.action == Action::kCorrupt)) return false;
  out = it->second;
  r.hit_counts[site] += 1;
  if (it->second.remaining > 0 && --it->second.remaining == 0) {
    r.sites.erase(it);
    r.armed_count.store(r.sites.size(), std::memory_order_relaxed);
  }
  return true;
}

}  // namespace

void arm(const std::string& site, Spec spec) {
  // No ensure_env_parsed() here: the env parser itself arms sites, and
  // re-entering the call_once from inside its own lambda would
  // deadlock.  point()/corrupt() parse the env before any lookup, so
  // env-armed sites are still in place before they can fire.
  GP_CHECK_MSG(!site.empty(), "fault site name must not be empty");
  GP_CHECK_MSG(spec.remaining != 0, "arming a fault with zero firings");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.sites[site] = spec;
  r.hit_counts[site] = 0;
  r.armed_count.store(r.sites.size(), std::memory_order_relaxed);
}

void disarm(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.sites.erase(site);
  r.armed_count.store(r.sites.size(), std::memory_order_relaxed);
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.sites.clear();
  r.hit_counts.clear();
  r.armed_count.store(0, std::memory_order_relaxed);
}

std::uint64_t hits(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.hit_counts.find(site);
  return it == r.hit_counts.end() ? 0 : it->second;
}

void arm_from_spec(const std::string& spec) {
  for (const auto& part : split(spec, ';')) {
    const std::string entry = std::string(trim(part));
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    GP_CHECK_MSG(eq != std::string::npos,
                 "bad fault spec '" << entry << "' (want site=action)");
    const std::string site = entry.substr(0, eq);
    std::string action = entry.substr(eq + 1);

    Spec out;
    if (const auto star = action.rfind('*'); star != std::string::npos) {
      out.remaining =
          static_cast<int>(parse_int(action.substr(star + 1)));
      GP_CHECK_MSG(out.remaining > 0,
                   "bad fault count in '" << entry << "'");
      action = action.substr(0, star);
    }
    if (const auto colon = action.find(':'); colon != std::string::npos) {
      out.delay_ms =
          static_cast<int>(parse_int(action.substr(colon + 1)));
      action = action.substr(0, colon);
    }
    if (action == "throw") out.action = Action::kThrow;
    else if (action == "timeout") out.action = Action::kTimeout;
    else if (action == "delay") out.action = Action::kDelay;
    else if (action == "corrupt") out.action = Action::kCorrupt;
    else
      GP_CHECK_MSG(false, "unknown fault action '" << action << "' in '"
                                                   << entry << "'");
    arm(site, out);
  }
}

std::string armed_spec(const std::string& prefix) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::string out;
  for (const auto& [site, spec] : r.sites) {
    if (site.compare(0, prefix.size(), prefix) != 0) continue;
    if (!out.empty()) out += ';';
    out += site;
    out += '=';
    switch (spec.action) {
      case Action::kThrow: out += "throw"; break;
      case Action::kTimeout: out += "timeout"; break;
      case Action::kDelay:
        out += "delay:" + std::to_string(spec.delay_ms);
        break;
      case Action::kCorrupt: out += "corrupt"; break;
    }
    if (spec.remaining > 0) {
      out += '*';
      out += std::to_string(spec.remaining);
    }
  }
  return out;
}

std::unique_lock<std::mutex> registry_fork_lock() {
  ensure_env_parsed();
  return std::unique_lock<std::mutex>(registry().mutex);
}

void child_after_fork() {
  Registry& r = registry();
  // The forking parent thread held the registry lock (registry_fork_lock)
  // at the fork instant, so the child's copy of the mutex is locked by a
  // thread that does not exist here and would never be released.
  // Re-initializing it in the single-threaded child is the standard
  // pthread_atfork-style remedy; the maps themselves are consistent
  // because the lock holder was forking, not mutating.
  new (&r.mutex) std::mutex;
  r.sites.clear();
  r.hit_counts.clear();
  r.armed_count.store(0, std::memory_order_relaxed);
}

void point(const std::string& site, const Deadline* deadline) {
  ensure_env_parsed();
  Registry& r = registry();
  if (r.armed_count.load(std::memory_order_relaxed) == 0) return;
  Spec spec;
  if (!consume(site, /*corrupt_only=*/false, spec)) return;
  switch (spec.action) {
    case Action::kThrow:
      throw FaultInjected(site);
    case Action::kTimeout:
      throw AnalysisTimeout("injected timeout at " + site);
    case Action::kDelay: {
      // Sleep in 1 ms slices so an in-scope Deadline converts the
      // injected slowness into a genuine AnalysisTimeout mid-delay.
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(spec.delay_ms);
      while (std::chrono::steady_clock::now() < until) {
        if (deadline != nullptr) deadline->check(site.c_str());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      break;
    }
    case Action::kCorrupt:
      break;  // only fires through corrupt()
  }
}

bool corrupt(const std::string& site) {
  ensure_env_parsed();
  Registry& r = registry();
  if (r.armed_count.load(std::memory_order_relaxed) == 0) return false;
  Spec spec;
  return consume(site, /*corrupt_only=*/true, spec);
}

bool consume_nonthrowing(const std::string& site, Spec& out) {
  ensure_env_parsed();
  Registry& r = registry();
  if (r.armed_count.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.sites.find(site);
  if (it == r.sites.end()) return false;
  out = it->second;
  r.hit_counts[site] += 1;
  if (it->second.remaining > 0 && --it->second.remaining == 0) {
    r.sites.erase(it);
    r.armed_count.store(r.sites.size(), std::memory_order_relaxed);
  }
  return true;
}

}  // namespace gpuperf::fault
