#include "common/strings.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace gpuperf {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("\t\n abc \r\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("resnet50@gtx", "resnet50"));
  EXPECT_FALSE(starts_with("res", "resnet"));
  EXPECT_TRUE(ends_with("model.ptx", ".ptx"));
  EXPECT_FALSE(ends_with("x", "xx"));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("MobileNetV2"), "mobilenetv2");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(25549352), "25,549,352");
  EXPECT_EQ(with_commas(1046113195), "1,046,113,195");
  EXPECT_THROW(with_commas(-1), CheckError);
}

TEST(Strings, Fixed) {
  EXPECT_EQ(fixed(5.73, 2), "5.73");
  EXPECT_EQ(fixed(1.0, 0), "1");
  EXPECT_EQ(fixed(-0.4439, 4), "-0.4439");
}

TEST(Strings, FullPrecisionPinsTheSerializedText) {
  // Model files, manifests, journals and bundle-key hashes hold this
  // exact text, so it must never change.
  EXPECT_EQ(full_precision(0.125), "0.125");
  EXPECT_EQ(full_precision(2.0), "2");
  EXPECT_EQ(full_precision(0.1), "0.10000000000000001");
  EXPECT_EQ(full_precision(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(full_precision(-1e-7), "-9.9999999999999995e-08");
  EXPECT_EQ(full_precision(123456789012345678.0), "1.2345678901234568e+17");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_THROW(parse_int("4x"), CheckError);
  EXPECT_THROW(parse_int(""), CheckError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_THROW(parse_double("abc"), CheckError);
}

}  // namespace
}  // namespace gpuperf
