#include "json_flat.hpp"

#include <cstdlib>
#include <stdexcept>

namespace perfbench {

namespace {

class Flattener {
 public:
  explicit Flattener(std::string_view text) : s_(text) {}

  FlatJson run() {
    value("");
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return std::move(out_);
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("bad JSON at offset ") +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  static std::string join(const std::string& prefix, const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          const unsigned long code = std::strtoul(
              std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16);
          pos_ += 4;
          // The service only escapes control characters this way.
          out.push_back(static_cast<char>(code & 0x7f));
          break;
        }
        default: out.push_back(e); break;
      }
    }
  }

  void value(const std::string& path) {
    const char c = peek();
    if (c == '{') {
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return;
      }
      while (true) {
        const std::string key = string_literal();
        expect(':');
        value(join(path, key));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return;
      }
    }
    if (c == '[') {
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return;
      }
      for (std::size_t i = 0;; ++i) {
        value(join(path, std::to_string(i)));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return;
      }
    }
    if (c == '"') {
      out_[path] = string_literal();
      return;
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']' && s_[pos_] != ' ')
      ++pos_;
    if (pos_ == start) fail("empty scalar");
    out_[path] = std::string(s_.substr(start, pos_ - start));
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  FlatJson out_;
};

}  // namespace

FlatJson flatten_json(std::string_view text) { return Flattener(text).run(); }

std::optional<double> number_at(const FlatJson& json,
                                const std::string& path) {
  const auto it = json.find(path);
  if (it == json.end() || it->second.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end != it->second.c_str() + it->second.size()) return std::nullopt;
  return v;
}

}  // namespace perfbench
