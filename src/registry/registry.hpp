// Versioned on-disk store for trained estimators — the "train once,
// predict anywhere" half of the paper's T_est = t_dca + n·t_pm speedup
// argument made durable: a trained regressor is a shipped artifact
// (bundle), not process state.
//
// Layout:
//   <root>/
//     v0001/              one immutable bundle per version
//       MANIFEST          registry::Manifest (schema, metrics, checksum)
//       model.txt         ml::serialize_regressor output
//     v0002/ ...
//     LATEST              name of the live version ("v0002")
//
// Publishing is atomic: the bundle is staged in a dot-directory,
// fsynced, renamed into place, and only then does LATEST move (itself
// via write-temp + rename).  Readers therefore never observe a partial
// bundle, and a crashed publisher leaves only an ignorable .staging
// directory.  Publishing is also *gated*: a bundle whose CV MAPE
// regresses past the live bundle's by more than the configured margin
// is refused unless forced.
// Durability (docs/ROBUSTNESS.md "Registry recovery"): opening the
// registry sweeps stale .staging-* directories and repairs a missing,
// corrupt or dangling LATEST pointer (an interrupted publish can leave
// any of those behind).  Loading a corrupt bundle — unreadable or
// unparsable manifest, missing model file, checksum mismatch, model/
// manifest disagreement — moves the bundle to quarantine/ instead of
// leaving the damage in the version list; a LATEST load then falls
// back to the newest remaining good version rather than failing to
// serve.  An explicitly-requested version is never silently
// substituted: it quarantines and throws.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/estimator.hpp"
#include "registry/manifest.hpp"

namespace gpuperf::registry {

/// A bundle whose on-disk bytes are damaged (vs. merely incompatible:
/// a feature-schema mismatch is a build issue and is NOT this).  The
/// bundle has already been moved to quarantine/ when this is thrown.
class BundleCorruptError : public CheckError {
 public:
  explicit BundleCorruptError(const std::string& what) : CheckError(what) {}
};

struct PublishOptions {
  /// Maximum tolerated CV-MAPE regression, in percentage points over
  /// the live bundle (new_mape <= live_mape + margin).  Only enforced
  /// when both bundles carry CV metrics.
  double max_mape_regression = 1.0;
  /// Publish even past the gate (records the metrics regardless).
  bool force = false;
};

/// A verified, loaded bundle.
struct Bundle {
  std::string version;
  Manifest manifest;
  core::PerformanceEstimator estimator;
};

class ModelRegistry {
 public:
  /// Opens (creating directories as needed) the registry at `root`,
  /// sweeps stale .staging-* leftovers of interrupted publishes, and
  /// repairs the LATEST pointer if an interrupted publish or bit rot
  /// left it missing, unparsable, or pointing at a missing bundle.
  explicit ModelRegistry(std::string root);

  const std::string& root() const { return root_; }

  /// All published versions, ascending by number ("v0001", "v0002",
  /// ..., "v9999", "v10000").
  std::vector<std::string> versions() const;

  /// The LATEST pointer's target; empty string when nothing is
  /// published yet.
  std::string latest_version() const;
  bool empty() const { return latest_version().empty(); }

  /// Atomically publish a trained estimator under the next version and
  /// advance LATEST.  The caller fills the manifest's provenance and CV
  /// fields; schema hash, feature count, model file and checksum are
  /// stamped here.  Returns the new version name.  GP_CHECK-fails when
  /// the gate refuses (see PublishOptions) — nothing is written in
  /// that case.
  std::string publish(const core::PerformanceEstimator& estimator,
                      Manifest manifest, PublishOptions options = {});

  /// Parse one bundle's manifest without loading the model.
  Manifest manifest(const std::string& version) const;

  /// Load + verify a bundle; empty version means LATEST.
  ///
  /// A corrupt bundle (unreadable/unparsable manifest, missing model
  /// file, checksum mismatch, model/manifest disagreement) is moved to
  /// quarantine/.  Loading an explicit version then throws
  /// BundleCorruptError; loading LATEST repairs the pointer and falls
  /// back to the newest remaining good version, throwing only when no
  /// good version is left.  A feature schema differing from this
  /// build's FeatureExtractor throws (CheckError) without quarantining
  /// — the bytes are fine, the build is incompatible.
  Bundle load(const std::string& version = "");

  /// Point LATEST at an existing version — rollback (or roll-forward).
  void set_latest(const std::string& version);

  /// Re-point LATEST at the newest version with a parsable manifest
  /// (removing the pointer if none is left).  Called on open; exposed
  /// so operators/tests can force a repair after manual surgery.
  void repair_latest();

  /// Bundles moved to quarantine/ by this instance.
  std::size_t quarantined_total() const { return quarantined_.load(); }

 private:
  std::string version_dir(const std::string& version) const;
  /// Move a damaged bundle into quarantine/ (never throws; best
  /// effort — a bundle that cannot even be moved is left in place).
  void quarantine(const std::string& version);
  /// Load + verify one concrete version; quarantines and throws
  /// BundleCorruptError on damaged bytes.
  Bundle load_verified(const std::string& version);

  std::string root_;
  std::atomic<std::size_t> quarantined_{0};
};

}  // namespace gpuperf::registry
