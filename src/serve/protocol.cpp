#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>

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
  return Response{false, json.str(), false};
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

void JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
}

void JsonWriter::scalar(std::string_view text) {
  out_ += text;
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
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  out_ += '"';
  out_ += json_escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    scalar("null");
  } else {
    char buf[64];
    // %.17g round-trips every finite double exactly, so a client that
    // parses the response recovers the bit-identical prediction.
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    scalar(buf);
  }
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::int64_t value) {
  key(k);
  scalar(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  scalar(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, bool value) {
  key(k);
  scalar(value ? "true" : "false");
  return *this;
}

}  // namespace gpuperf::serve
