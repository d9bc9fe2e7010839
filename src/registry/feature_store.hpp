// Persistent DCA feature store: the expensive half of a prediction
// (static analysis + PTX codegen + sliced symbolic execution) cached
// *across processes*.  A restarted server warm-starts from here and
// never re-runs slicing/symexec for a model it has seen before.
//
// Entries are content-addressed by the hash of the CNN's canonical
// text serialization (cnn::serialize_model), which includes the model
// name: a renamed copy of a DAG gets its own address, and so does any
// topology edit.  The paper's DCA features (executed
// instructions, trainable parameters) are device-independent, so one
// entry serves every device; device features join the vector at
// feature_vector() time.
//
// Durability: one append-only journal file ("store.journal") of "GPFR"
// records (common/record_log.hpp; docs/FILE_FORMATS.md "CRC-framed
// records"), last-writer-wins per topology, each payload the
// line-oriented "gpuperf-features v1" text.  Open replays the journal
// and truncates the tail after the last valid record; each put appends
// one fsynced record.  The store is a cache: whatever a truncation
// drops is recomputed on first use.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cnn/model.hpp"
#include "common/limits.hpp"
#include "common/record_log.hpp"
#include "core/features.hpp"

namespace gpuperf::registry {

class FeatureStore {
 public:
  /// Opens (creating directories as needed) the store at `root` and
  /// replays the journal, truncating any torn tail.
  explicit FeatureStore(std::string root,
                        const InputLimits& limits = InputLimits::defaults());

  const std::string& root() const { return root_; }

  /// Path of the journal file inside `root`.
  const std::string& journal_path() const { return log_.path(); }

  /// Content address of a CNN topology.
  static std::uint64_t topology_hash(const cnn::Model& model);

  /// nullptr on miss — including a topology whose on-disk record was
  /// corrupt at open time (never throws for bad on-disk data).
  std::shared_ptr<const core::ModelFeatures> get(
      std::uint64_t topology) const;

  /// Append one record to the journal and fsync it; overwrites any
  /// previous entry at this address (last writer wins on replay).
  void put(std::uint64_t topology, const core::ModelFeatures& features);

  /// What get_or_compute did, for the caller's counters.
  struct Lookup {
    std::shared_ptr<const core::ModelFeatures> features;
    bool hit = false;           // read from the store; compute not called
    bool read_failed = false;   // the read threw (logged); taken as a miss
    bool write_failed = false;  // the put threw (logged); features kept
  };

  /// Read-through: the stored features at `topology`, else `compute()`,
  /// which is then put.  Store I/O never fails the call: an unreadable
  /// store is a miss and a failed put leaves the computed features in
  /// hand.  Whatever `compute` throws propagates, and nothing is put.
  Lookup get_or_compute(std::uint64_t topology,
                        const std::function<core::ModelFeatures()>& compute);

  /// Number of distinct live entries.
  std::size_t size() const;

  /// Rewrite the journal with only the live (last-writer) records,
  /// atomically (temp + fsync + rename).  Reclaims space taken by
  /// overwritten records and truncated garbage.
  void compact();

  // ---- recovery telemetry (serve exposes these in `stats`) ----------
  /// Valid records recovered by the replay at open time.
  std::size_t recovered_records() const { return replayed_.records; }
  /// Bytes of torn/corrupt tail truncated away at open time.
  std::size_t torn_tail_bytes() const { return replayed_.torn_tail_bytes; }

 private:
  std::string root_;
  mutable std::mutex mutex_;
  RecordLog log_;  // guarded by mutex_
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const core::ModelFeatures>>
      index_;
  RecordLog::Replay replayed_;
};

}  // namespace gpuperf::registry
