#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"

namespace gpuperf {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string with_commas(long long value) {
  GP_CHECK(value >= 0);
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

std::string fixed(double value, int digits) {
  GP_CHECK(digits >= 0 && digits <= 17);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string full_precision(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

long long parse_int(std::string_view s) {
  s = trim(s);
  long long v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  GP_CHECK_MSG(ec == std::errc() && ptr == s.data() + s.size(),
               "not an integer: '" << std::string(s) << "'");
  return v;
}

double parse_double(std::string_view s) {
  s = trim(s);
  double v = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  GP_CHECK_MSG(ec == std::errc() && ptr == s.data() + s.size(),
               "not a number: '" << std::string(s) << "'");
  return v;
}

}  // namespace gpuperf
