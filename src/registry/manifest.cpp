#include "registry/manifest.hpp"

#include <map>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "registry/hash.hpp"

namespace gpuperf::registry {

namespace {

/// Model/device lists serialize as a comma join; the empty list (the
/// "use the defaults" convention) spells itself "default".
std::string list_field(const std::vector<std::string>& values) {
  return values.empty() ? "default" : join(values, ",");
}

std::vector<std::string> parse_list_field(const std::string& value) {
  if (value == "default") return {};
  return split(value, ',');
}

}  // namespace

std::string serialize_manifest(const Manifest& m) {
  std::ostringstream os;
  os << "gpuperf-bundle v" << m.schema_version << "\n";
  os << "regressor " << m.regressor_id << "\n";
  os << "feature_schema " << hex64(m.feature_schema_hash) << "\n";
  os << "features " << m.n_features << "\n";
  os << "seed " << m.seed << "\n";
  os << "train_models " << list_field(m.train_models) << "\n";
  os << "train_devices " << list_field(m.train_devices) << "\n";
  os << "cv_folds " << m.cv_folds << "\n";
  os << "cv_mape " << full_precision(m.cv_mape) << "\n";
  os << "cv_r2 " << full_precision(m.cv_r2) << "\n";
  os << "model_file " << m.model_file << "\n";
  os << "model_checksum " << hex64(m.model_checksum) << "\n";
  return os.str();
}

Manifest deserialize_manifest(const std::string& text,
                              const InputLimits& limits) {
  try {
    enforce_limit(text.size(), limits.max_manifest_bytes, "manifest bytes");
    std::istringstream is(text);
    std::string line;
    GP_CHECK_MSG(std::getline(is, line), "empty manifest");
    GP_CHECK_MSG(trim(line) == "gpuperf-bundle v1",
                 "bad manifest header: '" << line << "'");

    std::map<std::string, std::string> fields;
    while (std::getline(is, line)) {
      const std::string_view trimmed = trim(line);
      if (trimmed.empty()) continue;
      enforce_limit(fields.size() + 1, limits.max_manifest_fields,
                    "manifest fields");
      const std::size_t space = trimmed.find(' ');
      GP_CHECK_MSG(space != std::string_view::npos,
                   "bad manifest line: '" << line << "'");
      fields[std::string(trimmed.substr(0, space))] =
          std::string(trim(trimmed.substr(space + 1)));
    }

    const auto required = [&](const char* key) -> const std::string& {
      const auto it = fields.find(key);
      GP_CHECK_MSG(it != fields.end(), "manifest missing '" << key << "'");
      return it->second;
    };

    Manifest m;
    m.schema_version = 1;
    m.regressor_id = required("regressor");
    m.feature_schema_hash = parse_hex64(required("feature_schema"));
    m.n_features =
        static_cast<std::size_t>(parse_int(required("features")));
    m.seed = static_cast<std::uint64_t>(parse_int(required("seed")));
    m.train_models = parse_list_field(required("train_models"));
    m.train_devices = parse_list_field(required("train_devices"));
    m.cv_folds = static_cast<std::size_t>(parse_int(required("cv_folds")));
    m.cv_mape = parse_double(required("cv_mape"));
    m.cv_r2 = parse_double(required("cv_r2"));
    m.model_file = required("model_file");
    m.model_checksum = parse_hex64(required("model_checksum"));
    GP_CHECK_MSG(!m.regressor_id.empty(),
                 "manifest has empty regressor id");
    GP_CHECK_MSG(m.n_features >= 1, "manifest has no features");
    return m;
  } catch (const InputRejected&) {
    throw;
  } catch (const CheckError& e) {
    throw InputRejected(std::string("manifest: ") + e.what());
  } catch (const std::out_of_range& e) {
    throw InputRejected(std::string("manifest: truncated input (") +
                        e.what() + ")");
  } catch (const std::length_error& e) {
    throw InputRejected(std::string("manifest: oversized input (") +
                        e.what() + ")");
  }
}

std::uint64_t feature_schema_hash(const std::vector<std::string>& names) {
  return fnv1a64(join(names, ","));
}

}  // namespace gpuperf::registry
