// A small JSON reader for the service's own single-line responses: it
// flattens an object into "a.b.0.c" → value-text pairs.  Numbers keep
// their exact text, so the oracle can compare them bit for bit, and the
// `stats` counters are read by path with no C++ accessor involved — a
// deleted stats block simply reads as absent.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

using FlatJson = std::map<std::string, std::string>;

/// Flatten one JSON value.  Object keys join with '.', array elements
/// use their index.  Strings are unescaped; numbers, true, false and
/// null keep their literal text.  Throws std::runtime_error on
/// malformed input.
FlatJson flatten_json(std::string_view text);

/// The number at `path`, or nullopt when the path is absent (or not a
/// number).
std::optional<double> number_at(const FlatJson& json,
                                const std::string& path);

}  // namespace perfbench
