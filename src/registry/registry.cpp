#include "registry/registry.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/strings.hpp"
#include "ml/model_io.hpp"
#include "registry/hash.hpp"

namespace fs = std::filesystem;

namespace gpuperf::registry {

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  GP_CHECK_MSG(in.good(), "cannot open '" << path.string() << "'");
  std::ostringstream os;
  os << in.rdbuf();
  GP_CHECK_MSG(!in.bad(), "read of '" << path.string() << "' failed");
  return os.str();
}

/// Durable write: the data reaches the disk before this returns, so a
/// subsequent rename publishes a complete file or nothing.
void write_file_synced(const fs::path& path, const std::string& content) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    GP_CHECK_MSG(out.good(),
                 "cannot open '" << path.string() << "' for writing");
    out << content;
    out.flush();
    GP_CHECK_MSG(out.good(), "write to '" << path.string() << "' failed");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  GP_CHECK_MSG(fd >= 0, "cannot reopen '" << path.string() << "' to sync");
  const int rc = ::fsync(fd);
  ::close(fd);
  GP_CHECK_MSG(rc == 0, "fsync of '" << path.string() << "' failed");
}

/// fsync a directory so a rename inside it is durable.
void sync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort on exotic filesystems
  ::fsync(fd);
  ::close(fd);
}

/// "v" and the version number in at least four digits: v0001, v9999,
/// v10000.
bool is_version_name(const std::string& name) {
  if (name.size() < 5 || name[0] != 'v') return false;
  return std::all_of(name.begin() + 1, name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

std::string version_name(long long number) {
  std::string digits = std::to_string(number);
  if (digits.size() < 4) digits.insert(0, 4 - digits.size(), '0');
  return "v" + digits;
}

/// Orders version names by number, so v10000 follows v9999.  Compares
/// the digits as text (shorter first once leading zeros are gone), so no
/// name is too long to order.
bool version_less(std::string_view a, std::string_view b) {
  const auto number = [](std::string_view name) {
    name.remove_prefix(1);
    return name.substr(std::min(name.find_first_not_of('0'), name.size()));
  };
  const std::string_view na = number(a);
  const std::string_view nb = number(b);
  if (na.size() != nb.size()) return na.size() < nb.size();
  if (na != nb) return na < nb;
  return a < b;  // one number written twice ("v0012", "v00012")
}

}  // namespace

ModelRegistry::ModelRegistry(std::string root) : root_(std::move(root)) {
  GP_CHECK_MSG(!root_.empty(), "registry root must not be empty");
  fs::create_directories(root_);

  // Sweep the leavings of interrupted publishes: staged bundles that
  // never got renamed into place and a LATEST.tmp that never replaced
  // LATEST.  Both are invisible to readers and safe to delete.
  std::error_code ec;
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    const std::string name = entry.path().filename().string();
    if (starts_with(name, ".staging-") || name == "LATEST.tmp")
      stale.push_back(entry.path());
  }
  for (const auto& path : stale) fs::remove_all(path, ec);

  repair_latest();
}

std::string ModelRegistry::version_dir(const std::string& version) const {
  return (fs::path(root_) / version).string();
}

std::vector<std::string> ModelRegistry::versions() const {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (is_version_name(name)) out.push_back(name);
  }
  std::sort(out.begin(), out.end(), version_less);
  return out;
}

std::string ModelRegistry::latest_version() const {
  GPUPERF_FAULT_POINT("registry.latest");  // dead volume / unreadable
  const fs::path pointer = fs::path(root_) / "LATEST";
  if (!fs::exists(pointer)) return "";
  const std::string name = std::string(trim(read_file(pointer)));
  GP_CHECK_MSG(is_version_name(name),
               "corrupt LATEST pointer: '" << name << "'");
  return name;
}

Manifest ModelRegistry::manifest(const std::string& version) const {
  const fs::path dir = version_dir(version);
  GP_CHECK_MSG(fs::is_directory(dir),
               "no bundle '" << version << "' in " << root_);
  return deserialize_manifest(read_file(dir / "MANIFEST"));
}

std::string ModelRegistry::publish(
    const core::PerformanceEstimator& estimator, Manifest manifest,
    PublishOptions options) {
  GP_CHECK_MSG(estimator.is_trained(), "publish of an untrained estimator");

  // Gate against the live bundle before writing anything.
  const std::string live = latest_version();
  if (!live.empty() && !options.force && manifest.cv_folds > 0) {
    const Manifest live_manifest = this->manifest(live);
    if (live_manifest.cv_folds > 0) {
      GP_CHECK_MSG(
          manifest.cv_mape <=
              live_manifest.cv_mape + options.max_mape_regression,
          "publish gate: CV MAPE " << manifest.cv_mape
              << "% regresses past live bundle " << live << " ("
              << live_manifest.cv_mape << "%) by more than "
              << options.max_mape_regression
              << " points; pass force to override");
    }
  }

  // Stamp the machine-owned manifest fields.
  const std::string model_text =
      ml::serialize_regressor(estimator.model());
  manifest.schema_version = 1;
  manifest.regressor_id = estimator.regressor_id();
  manifest.feature_schema_hash =
      feature_schema_hash(core::FeatureExtractor::feature_names());
  manifest.n_features = core::FeatureExtractor::feature_names().size();
  manifest.model_file = "model.txt";
  manifest.model_checksum = fnv1a64(model_text);

  const std::vector<std::string> existing = versions();
  const long long next =
      existing.empty() ? 1 : parse_int(existing.back().substr(1)) + 1;
  const std::string version = version_name(next);

  // Stage, sync, rename: readers either see the whole bundle or none.
  const fs::path root(root_);
  const fs::path staging = root / (".staging-" + version);
  fs::remove_all(staging);
  fs::create_directories(staging);
  write_file_synced(staging / manifest.model_file, model_text);
  write_file_synced(staging / "MANIFEST", serialize_manifest(manifest));
  sync_dir(staging);
  fs::rename(staging, root / version);
  sync_dir(root);

  set_latest(version);
  return version;
}

void ModelRegistry::set_latest(const std::string& version) {
  GP_CHECK_MSG(is_version_name(version),
               "bad version name '" << version << "'");
  GP_CHECK_MSG(fs::is_directory(version_dir(version)),
               "no bundle '" << version << "' in " << root_);
  const fs::path root(root_);
  const fs::path tmp = root / "LATEST.tmp";
  write_file_synced(tmp, version + "\n");
  fs::rename(tmp, root / "LATEST");
  sync_dir(root);
}

void ModelRegistry::quarantine(const std::string& version) {
  std::error_code ec;
  const fs::path qdir = fs::path(root_) / "quarantine";
  fs::create_directories(qdir, ec);
  fs::path dest = qdir / version;
  for (int i = 1; fs::exists(dest, ec); ++i)
    dest = qdir / (version + "-" + std::to_string(i));
  fs::rename(version_dir(version), dest, ec);
  if (!ec) {
    quarantined_.fetch_add(1);
    sync_dir(fs::path(root_));
    // If LATEST pointed at the bundle just moved aside it now dangles;
    // re-point it at the newest remaining good version immediately so
    // no reader ever resolves a pointer into the quarantine.
    repair_latest();
  }
}

void ModelRegistry::repair_latest() {
  const fs::path pointer = fs::path(root_) / "LATEST";
  // A healthy pointer is left alone — even when newer versions exist,
  // because an operator rollback must survive a restart.
  if (fs::exists(pointer)) {
    try {
      const std::string name = std::string(trim(read_file(pointer)));
      if (is_version_name(name) && fs::is_directory(version_dir(name)))
        return;
    } catch (const CheckError&) {
      // unreadable pointer: fall through and re-point it
    }
  } else if (versions().empty()) {
    return;  // nothing published yet
  }

  // Re-point at the newest version whose manifest parses.
  const std::vector<std::string> all = versions();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    try {
      (void)manifest(*it);
      set_latest(*it);
      return;
    } catch (const CheckError&) {
      continue;
    }
  }
  std::error_code ec;
  fs::remove(pointer, ec);  // no valid version left to point at
}

Bundle ModelRegistry::load_verified(const std::string& target) {
  const fs::path dir = version_dir(target);
  GP_CHECK_MSG(fs::is_directory(dir),
               "no bundle '" << target << "' in " << root_);

  Manifest m;
  try {
    m = deserialize_manifest(read_file(dir / "MANIFEST"));
  } catch (const CheckError& e) {
    quarantine(target);
    throw BundleCorruptError("bundle " + target +
                             " has a corrupt manifest: " + e.what());
  }

  // An incompatible schema is a build problem, not disk damage — the
  // bundle stays where it is.
  GP_CHECK_MSG(
      m.feature_schema_hash ==
          feature_schema_hash(core::FeatureExtractor::feature_names()),
      "bundle " << target << " was trained on a different feature schema");

  GPUPERF_FAULT_POINT("registry.load");
  std::string model_text;
  try {
    model_text = read_file(dir / m.model_file);
  } catch (const CheckError& e) {
    quarantine(target);
    throw BundleCorruptError("bundle " + target +
                             " model file unreadable: " + e.what());
  }
  const bool disk_matches = fnv1a64(model_text) == m.model_checksum;
  // A corrupted bundle read: one flipped byte must trip the checksum
  // gate below, never install a silently wrong model.
  if (GPUPERF_FAULT_CORRUPT("registry.load") && !model_text.empty())
    model_text[0] ^= 0x01;
  if (fnv1a64(model_text) != m.model_checksum) {
    // Quarantine only durable damage.  When the bytes on disk verify
    // but the in-memory copy doesn't (a transient read fault), the
    // bundle is fine — fail this load and leave it in place.
    if (!disk_matches) quarantine(target);
    const std::string msg = "bundle " + target +
                            " model checksum mismatch — " + m.model_file +
                            " is corrupt";
    if (!disk_matches) throw BundleCorruptError(msg);
    GP_CHECK_MSG(false, msg);
  }

  ml::LoadedRegressor loaded;
  try {
    loaded = ml::deserialize_regressor(model_text);
  } catch (const CheckError& e) {
    quarantine(target);
    throw BundleCorruptError("bundle " + target +
                             " model is unparsable: " + e.what());
  }
  if (loaded.id != m.regressor_id) {
    quarantine(target);
    throw BundleCorruptError("bundle " + target + " manifest says '" +
                             m.regressor_id +
                             "' but the model file holds '" + loaded.id +
                             "'");
  }
  return Bundle{target, m,
                core::PerformanceEstimator::adopt(std::move(loaded.id),
                                                  std::move(loaded.model))};
}

Bundle ModelRegistry::load(const std::string& version) {
  if (!version.empty()) return load_verified(version);

  // LATEST load: a corrupt live bundle is quarantined by
  // load_verified, after which the pointer is repaired and the newest
  // remaining good version serves instead.  Each fallback round
  // removes a bundle, so the loop is bounded.
  const std::size_t max_attempts = versions().size() + 1;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    std::string target;
    try {
      target = latest_version();
    } catch (const CheckError&) {
      repair_latest();
      target = latest_version();
    }
    GP_CHECK_MSG(!target.empty(), "registry " << root_ << " is empty");
    try {
      return load_verified(target);
    } catch (const BundleCorruptError&) {
      repair_latest();
      if (versions().empty()) throw;
    }
  }
  throw BundleCorruptError("registry " + root_ + " has no loadable bundle");
}

}  // namespace gpuperf::registry
