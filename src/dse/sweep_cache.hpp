// Persistent sweep-result cache: the cheap half of a fleet sweep — the
// per-(model, device) prediction and its derived latency/power figures
// — cached *across processes*, layered on the same crash-safe journal
// idiom as the PR-2 feature store (docs/FILE_FORMATS.md).
//
// Entries are keyed on model-topology × device × estimator-bundle
// version: the topology hash (which covers the model name) scopes the
// model, the device name scopes the prediction, and the bundle key
// guarantees a hot-reloaded or retrained estimator can never serve
// another model's numbers.  Together with the feature store this makes
// a repeated fleet sweep near-free — a restarted process replays
// yesterday's sweep with zero DCA runs and zero predictions.
//
// Durability: one append-only journal file ("sweep.journal") of "GPSC"
// records (common/record_log.hpp; docs/FILE_FORMATS.md "CRC-framed
// records"), last-writer-wins per key, each payload the line-oriented
// "gpuperf-sweep v1" text.  Open replays the journal and truncates the
// tail after the last valid record; each put appends one fsynced
// record.  Degraded cells are never written — a fallback prediction
// must not masquerade as a warm full-analysis result on the next sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/limits.hpp"
#include "common/record_log.hpp"

namespace gpuperf::dse {

class SweepCache {
 public:
  /// Opens (creating directories as needed) the cache at `root` and
  /// replays the journal, truncating any torn tail.  The root may be
  /// shared with a registry::FeatureStore — the journals have distinct
  /// names.
  explicit SweepCache(std::string root,
                      const InputLimits& limits = InputLimits::defaults());

  const std::string& root() const { return root_; }
  const std::string& journal_path() const { return log_.path(); }

  /// One cached cell: everything the sweep needs without re-running
  /// analysis or prediction.
  struct Entry {
    double predicted_ipc = 0.0;
    double latency_ms = 0.0;
    double power_w = 0.0;
  };

  /// Cache key of one cell.  `bundle_key` identifies the estimator
  /// (registry version, or a content hash for ad-hoc models) and must
  /// be whitespace-free.
  static std::string cell_key(std::uint64_t topology,
                              const std::string& device,
                              const std::string& bundle_key);

  /// nullptr on miss — including a key whose on-disk record was corrupt
  /// at open time (never throws for bad on-disk data).
  std::shared_ptr<const Entry> get(const std::string& key) const;

  /// Append one record and fsync; last writer wins on replay.
  void put(const std::string& key, const Entry& entry);

  std::size_t size() const;

  // ---- telemetry (serve exposes these in `stats`) -------------------
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  /// Valid records recovered by the replay at open time.
  std::size_t recovered_records() const { return replayed_.records; }
  /// Bytes of torn/corrupt tail truncated away at open time.
  std::size_t torn_tail_bytes() const { return replayed_.torn_tail_bytes; }

 private:
  std::string root_;
  mutable std::mutex mutex_;
  RecordLog log_;  // guarded by mutex_
  std::unordered_map<std::string, std::shared_ptr<const Entry>> index_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  RecordLog::Replay replayed_;
};

}  // namespace gpuperf::dse
