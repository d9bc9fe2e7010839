#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace gpuperf::serve {
namespace {

/// printf's "%.17g": the text a double field has always printed.
std::string printf_17g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// What JsonWriter prints for a double field, without the braces/key.
std::string written(double value) {
  JsonWriter json;
  json.begin_object().field("v", value).end_object();
  const std::string& body = json.str();
  return body.substr(5, body.size() - 6);  // {"v":…}
}

/// The escaping JsonWriter has always produced: quote, backslash, \n,
/// \r and \t by name, the other bytes below 0x20 as lowercase \u00XX,
/// every other byte (DEL and UTF-8 included) as is.
std::string reference_escape(std::string_view s) {
  std::string out;
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

TEST(ParseCommand, PositionalAndFlags) {
  const ParsedCommand cmd =
      parse_command({"resnet50v2", "teslat4", "--tree", "dt.txt"});
  ASSERT_EQ(cmd.positional.size(), 2u);
  EXPECT_EQ(cmd.positional[0], "resnet50v2");
  EXPECT_EQ(cmd.positional[1], "teslat4");
  EXPECT_EQ(cmd.flag_or("tree", ""), "dt.txt");
}

TEST(ParseCommand, BareFlagHasEmptyValue) {
  const ParsedCommand cmd = parse_command({"vgg16", "--layers"});
  EXPECT_TRUE(cmd.has_flag("layers"));
  EXPECT_EQ(cmd.flag_or("layers", "x"), "");
}

TEST(ParseCommand, FlagFollowedByFlagIsNotSwallowed) {
  // Historical CLI bug: `--out` at the end or followed by another flag
  // must not eat the next flag, and both flags must survive.
  const ParsedCommand cmd = parse_command({"--out", "--extended"});
  EXPECT_TRUE(cmd.has_flag("out"));
  EXPECT_EQ(cmd.flag_or("out", "x"), "");
  EXPECT_TRUE(cmd.has_flag("extended"));
}

TEST(ParseCommand, EqualsFormTakesValuesStartingWithDashes) {
  // The explicit form carries values the space form cannot.
  const ParsedCommand cmd =
      parse_command({"--out=--weird-name.csv", "--seed=42"});
  EXPECT_EQ(cmd.flag_or("out", ""), "--weird-name.csv");
  EXPECT_EQ(cmd.flag_or("seed", ""), "42");
}

TEST(ParseCommand, EqualsFormKeepsLaterEqualSigns) {
  const ParsedCommand cmd = parse_command({"--filter=a=b"});
  EXPECT_EQ(cmd.flag_or("filter", ""), "a=b");
}

TEST(ParseCommand, DoubleDashEndsFlagParsing) {
  const ParsedCommand cmd = parse_command({"--seed", "7", "--", "--model"});
  EXPECT_EQ(cmd.flag_or("seed", ""), "7");
  ASSERT_EQ(cmd.positional.size(), 1u);
  EXPECT_EQ(cmd.positional[0], "--model");
}

TEST(ParseRequest, VerbAndRemainder) {
  const Request request = parse_request("predict resnet50v2 teslat4\r");
  EXPECT_EQ(request.verb, "predict");
  ASSERT_EQ(request.cmd.positional.size(), 2u);
  EXPECT_EQ(request.cmd.positional[0], "resnet50v2");
}

TEST(ParseRequest, EmptyLine) {
  EXPECT_EQ(parse_request("").verb, "");
  EXPECT_EQ(parse_request("   \t ").verb, "");
}

TEST(ParseRequest, CollapsesWhitespace) {
  const Request request = parse_request("  rank   vgg16  ");
  EXPECT_EQ(request.verb, "rank");
  ASSERT_EQ(request.cmd.positional.size(), 1u);
  EXPECT_EQ(request.cmd.positional[0], "vgg16");
}

TEST(JsonWriter, ScalarsAndNesting) {
  JsonWriter json;
  json.begin_object()
      .field("ok", true)
      .field("name", "alex\"net")
      .field("ipc", 2.5)
      .field("count", static_cast<std::int64_t>(-3));
  json.begin_object("inner").field("x", std::uint64_t{7}).end_object();
  json.begin_array("items");
  json.begin_object().field("a", 1.0).end_object();
  json.begin_object().field("a", 2.0).end_object();
  json.end_array().end_object();
  EXPECT_EQ(json.str(),
            "{\"ok\":true,\"name\":\"alex\\\"net\",\"ipc\":2.5,"
            "\"count\":-3,\"inner\":{\"x\":7},"
            "\"items\":[{\"a\":1},{\"a\":2}]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.begin_object()
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity())
      .end_object();
  EXPECT_EQ(json.str(), "{\"nan\":null,\"inf\":null}");
}

TEST(JsonWriter, EscapesControlCharacters) {
  JsonWriter json;
  json.begin_object().field("a\nb\tc\x01", "back\\slash").end_object();
  EXPECT_EQ(json.str(), "{\"a\\nb\\tc\\u0001\":\"back\\\\slash\"}");
}

TEST(JsonWriter, EscapesEveryByteAsBefore) {
  std::vector<std::string> corpus = {
      "", "plain", "\"quoted\"", "back\\slash", "a\nb\rc\td",
      "\x01\x1f\x7f", "h\xc3\xa9llo \xe2\x9c\x93", "\x80\xff\"\\\n"};
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    corpus.push_back(std::string(1, c));
    corpus.push_back(std::string("x") + c + "y" + c + c);
  }
  for (const std::string& text : corpus) {
    JsonWriter json;
    json.begin_object().field(text, std::string_view(text));
    json.begin_array("a").value(text).end_array().end_object();
    const std::string e = reference_escape(text);
    EXPECT_EQ(json.str(), "{\"" + e + "\":\"" + e + "\",\"a\":[\"" + e + "\"]}")
        << "input bytes: " << text.size();
  }
}

TEST(JsonWriter, DoublesPrintAsPrintf17g) {
  const double corpus[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      0.1,
      0.3,
      2.0 / 3.0,
      1.0,
      -1.5,
      2.5,
      1e-7,
      1e-5,
      1e-4,
      1e15,
      1e16,
      1e17,
      1e21,
      1e22,
      9007199254740993.0,  // above 2^53: not every integer is exact
      9007199254740994.0,
      std::ldexp(1.0, 60),
      std::ldexp(1.0, 63) + std::ldexp(1.0, 11),
      123456789012345678.0,
      3.141592653589793,
      1.8213612901510481,
  };
  for (const double value : corpus)
    EXPECT_EQ(written(value), printf_17g(value)) << printf_17g(value);
}

TEST(JsonWriter, IntegersPrintInFull) {
  const std::int64_t low = std::numeric_limits<std::int64_t>::min();
  const std::int64_t high = std::numeric_limits<std::int64_t>::max();
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  JsonWriter json;
  json.begin_object()
      .field("low", low)
      .field("high", high)
      .field("top", top)
      .field("zero", std::uint64_t{0})
      .end_object();
  EXPECT_EQ(json.str(), "{\"low\":" + std::to_string(low) +
                            ",\"high\":" + std::to_string(high) +
                            ",\"top\":" + std::to_string(top) +
                            ",\"zero\":0}");
}

TEST(JsonWriter, RandomDoublesPrintAsPrintf17g) {
  std::mt19937_64 rng(20261018);
  std::size_t mismatches = 0;
  std::size_t finite = 0;
  const auto check = [&](double value) {
    if (!std::isfinite(value)) {
      EXPECT_EQ(written(value), "null");
      return;
    }
    ++finite;
    if (written(value) != printf_17g(value) && ++mismatches <= 5)
      ADD_FAILURE() << "printf " << printf_17g(value) << ", writer "
                    << written(value);
  };
  // Random bit patterns: every exponent, subnormals included.
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    check(value);
  }
  // The magnitudes the protocol prints: IPC, milliseconds, watts.
  std::uniform_real_distribution<double> ranged(1e-3, 1e4);
  for (int i = 0; i < 50000; ++i) check(ranged(rng));
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(finite, 240000u);
}

TEST(JsonWriter, OutputHasNoNewline) {
  JsonWriter json;
  json.begin_object().field("text", "line1\nline2").end_object();
  EXPECT_EQ(json.str().find('\n'), std::string::npos);
}

TEST(ErrorResponse, Shape) {
  // Every error carries a machine-readable code; the legacy overload
  // classifies as invalid_request (docs/ROBUSTNESS.md).
  const Response response = error_response("boom");
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.shutdown_requested);
  EXPECT_EQ(response.body,
            "{\"ok\":false,\"code\":\"invalid_request\","
            "\"error\":\"boom\"}");
}

}  // namespace
}  // namespace gpuperf::serve
