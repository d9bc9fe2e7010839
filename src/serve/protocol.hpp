// Wire protocol of the gpuperf estimation service (docs/SERVER.md):
// newline-delimited requests in the CLI's word grammar
// ("predict resnet50v2 teslat4"), newline-delimited single-line JSON
// responses.  The command parser here is also the CLI's argv parser —
// one grammar, one implementation, shared tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpuperf::serve {

/// Words split into positional arguments and --flags.
///
/// Grammar (fixes the historical argv parser, which silently swallowed
/// flag values that start with "--"):
///   --key=value   explicit form; value may contain anything, even "--"
///   --key value   value is the next word unless it starts with "--"
///   --key         bare flag; stored with an empty value
///   --            everything after a lone "--" is positional
struct ParsedCommand {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool has_flag(const std::string& key) const {
    return flags.count(key) > 0;
  }
  std::string flag_or(const std::string& key,
                      const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

ParsedCommand parse_command(const std::vector<std::string>& words);

/// One service request: the verb ("predict", "rank", "analyze",
/// "reload", "model_info", "stats", "ping", "shutdown") plus the
/// parsed remainder of the line.
struct Request {
  std::string verb;
  ParsedCommand cmd;
  std::string raw;  // the original line, for error messages
};

/// Split a request line on whitespace and parse it.  An empty or
/// all-whitespace line yields an empty verb.
Request parse_request(const std::string& line);

/// The admission-controlled verbs: predict, rank, analyze and dse, the
/// ones that run analysis.  Every other verb always gets through, so
/// the server stays observable and stoppable under overload.
bool is_heavy_verb(std::string_view verb);

/// A serialized single-line JSON response plus the out-of-band
/// shutdown signal the server acts on.
struct Response {
  bool ok = false;
  std::string body;  // single-line JSON, no trailing newline
  bool shutdown_requested = false;
};

/// Untyped error (always carries code "invalid_request"); failures with
/// a richer classification use the ErrorCode overload in
/// serve/errors.hpp.
Response error_response(const std::string& message);

/// Minimal streaming JSON writer: enough of the format for the
/// protocol's flat-ish responses (objects, arrays, scalars).  Keys and
/// strings are escaped straight into the output (quotes, backslashes,
/// control characters as \n, \r, \t or \u00XX; every other byte as
/// is), a double prints as printf's "%.17g" text, which round-trips,
/// and a non-finite double prints as null.  Output never contains a
/// newline, so one response is one line.  The buffer is reserved up
/// front, so a body that fits it is one heap block, and take() hands
/// that block over without a copy.
class JsonWriter {
 public:
  /// Reserves one small block: a `predict` body or an error fits it.
  JsonWriter() : JsonWriter(256) {}
  /// Reserves `capacity` bytes, for a body whose size the caller bounds
  /// from its row counts.
  explicit JsonWriter(std::size_t capacity) { out_.reserve(capacity); }

  JsonWriter& begin_object();
  JsonWriter& begin_object(std::string_view key);
  JsonWriter& end_object();
  JsonWriter& begin_array(std::string_view key);
  JsonWriter& end_array();

  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value);
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, bool value);

  /// A bare string element inside begin_array()/end_array().
  JsonWriter& value(std::string_view v);

  const std::string& str() const { return out_; }
  /// Moves the text out; the writer is done after this.
  std::string take() { return std::move(out_); }

 private:
  void comma();
  void key(std::string_view k);
  void quoted(std::string_view s);

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace gpuperf::serve
