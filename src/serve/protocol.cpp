#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace gpuperf::serve {

ParsedCommand parse_command(const std::vector<std::string>& words) {
  ParsedCommand out;
  bool positional_only = false;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string& word = words[i];
    if (positional_only || !starts_with(word, "--")) {
      out.positional.push_back(word);
      continue;
    }
    if (word == "--") {
      positional_only = true;
      continue;
    }
    const std::string body = word.substr(2);
    if (const auto eq = body.find('='); eq != std::string::npos) {
      out.flags[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < words.size() && !starts_with(words[i + 1], "--")) {
      out.flags[body] = words[++i];
    } else {
      out.flags[body] = "";
    }
  }
  return out;
}

Request parse_request(const std::string& line) {
  Request request;
  request.raw = std::string(trim(line));
  std::vector<std::string> words = split_ws(request.raw);
  if (words.empty()) return request;
  request.verb = words.front();
  words.erase(words.begin());
  request.cmd = parse_command(words);
  return request;
}

bool is_heavy_verb(std::string_view verb) {
  return verb == "predict" || verb == "rank" || verb == "analyze" ||
         verb == "dse";
}

Response error_response(const std::string& message) {
  // Untyped legacy form: callers that know better use the ErrorCode
  // overload in serve/errors.hpp.  Everything routed here is a request
  // the server could never satisfy, hence invalid_request.
  JsonWriter json;
  json.begin_object()
      .field("ok", false)
      .field("code", "invalid_request")
      .field("error", std::string_view(message))
      .end_object();
  return Response{false, json.take(), false};
}

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

void JsonWriter::key(std::string_view k) {
  comma();
  quoted(k);
  out_ += ':';
}

void JsonWriter::quoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  std::size_t plain = 0;  // start of the run not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out_.append(escaped, sizeof(escaped));
      }
    }
  }
  out_.append(s, plain);
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_object(std::string_view k) {
  key(k);
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view k) {
  key(k);
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  quoted(v);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  quoted(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

namespace {

// Appends to_chars' text of `value`; a buffer of 32 holds any integer
// and any double at precision 17 ("-1.2345678901234567e-308").
template <typename... Format>
void append_chars(std::string& out, auto value, Format... format) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), value, format...);
  GP_CHECK(ec == std::errc());
  out.append(buf, end);
}

}  // namespace

JsonWriter& JsonWriter::field(std::string_view k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    out_ += "null";
  } else {
    // Precision 17 in the general format is printf's "%.17g" text, which
    // round-trips every finite double exactly: a client that parses the
    // response recovers the bit-identical prediction.
    append_chars(out_, value, std::chars_format::general, 17);
  }
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::int64_t value) {
  key(k);
  append_chars(out_, value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  append_chars(out_, value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
  return *this;
}

}  // namespace gpuperf::serve
