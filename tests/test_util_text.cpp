#include "util/text.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace daos {
namespace {

TEST(ParseU64Test, DecimalDigitsOnly) {
  EXPECT_EQ(ParseU64("0"), 0u);
  EXPECT_EQ(ParseU64("007"), 7u);
  EXPECT_EQ(ParseU64("18446744073709551615"), 18446744073709551615ull);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1.0", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_FALSE(ParseU64(bad).has_value()) << bad;
  }
}

TEST(ParseU64Test, HexOnlyWhenAsked) {
  EXPECT_EQ(ParseU64("ff", 16), 255u);
  EXPECT_EQ(ParseU64("DeadBeef", 16), 0xdeadbeefu);
  EXPECT_EQ(ParseU64("ffffffffffffffff", 16), ~0ull);
  EXPECT_FALSE(ParseU64("ff").has_value());
  EXPECT_FALSE(ParseU64("0xff", 16).has_value());
  EXPECT_FALSE(ParseU64("10000000000000000", 16).has_value());
  EXPECT_FALSE(ParseU64("-ff", 16).has_value());
}

TEST(ParseU32Test, RangeChecked) {
  EXPECT_EQ(ParseU32("4294967295"), 4294967295u);
  EXPECT_FALSE(ParseU32("4294967296").has_value());
  EXPECT_FALSE(ParseU32("4294967306").has_value());
  EXPECT_FALSE(ParseU32("-1").has_value());
}

TEST(ParseDoubleTest, WholeTokenThroughStrtod) {
  EXPECT_EQ(ParseDouble("0.25"), 0.25);
  EXPECT_EQ(ParseDouble("-1.5e3"), -1500.0);
  EXPECT_EQ(ParseDouble("+2"), 2.0);
  EXPECT_EQ(ParseDouble("0x1.8p+1"), 3.0);  // "%a" output round-trips
  for (const char* bad : {"", "1.5x", " 1", "1 ", "--1", "0.5%"}) {
    EXPECT_FALSE(ParseDouble(bad).has_value()) << bad;
  }
  // Tokens longer than the stack copy still parse.
  const std::string long_zero = "0." + std::string(200, '0') + "1";
  EXPECT_GT(ParseDouble(long_zero).value_or(0.0), 0.0);
}

TEST(AppendFTest, AppendsWithoutTruncating) {
  std::string out = "x=";
  AppendF(out, "%d/%s", 42, "y");
  EXPECT_EQ(out, "x=42/y");
  const std::string big(1000, 'z');
  AppendF(out, "[%s]", big.c_str());
  EXPECT_EQ(out, "x=42/y[" + big + "]");
}

TEST(LineErrorTest, PrefixLineAndMessage) {
  EXPECT_EQ(LineError(3, "bad thing"), "line 3: bad thing");
  EXPECT_EQ(LineError(1, "too long", "tier "), "tier line 1: too long");
}

std::vector<std::string> Lines(LineCursor& cursor) {
  std::vector<std::string> out;
  while (cursor.Next()) out.emplace_back(cursor.raw());
  return out;
}

TEST(LineCursorTest, NewlinesAndFinalLine) {
  LineCursor a("x\ny\n");
  EXPECT_EQ(Lines(a), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(a.number(), 3);  // the line after the last one
  LineCursor b("x\n\ny");
  EXPECT_EQ(Lines(b), (std::vector<std::string>{"x", "", "y"}));
  EXPECT_EQ(b.number(), 4);
  LineCursor empty("");
  EXPECT_FALSE(empty.Next());
  EXPECT_EQ(empty.number(), 1);
  EXPECT_FALSE(empty.Next());
  EXPECT_EQ(empty.number(), 1);
}

TEST(LineCursorTest, SemicolonsOnlyWhenAsked) {
  LineCursor plain("a; b\nc");
  EXPECT_EQ(Lines(plain), (std::vector<std::string>{"a; b", "c"}));
  LineCursor split("a # x; b\nc", /*semicolons=*/true);
  ASSERT_TRUE(split.Next());
  EXPECT_EQ(split.content(), "a");
  ASSERT_TRUE(split.Next());
  EXPECT_EQ(split.number(), 2);
  EXPECT_EQ(split.content(), "b");
  ASSERT_TRUE(split.Next());
  EXPECT_EQ(split.content(), "c");
  EXPECT_FALSE(split.Next());
}

TEST(LineCursorTest, OffsetsAndTermination) {
  LineCursor lines("ab\ncd");
  ASSERT_TRUE(lines.Next());
  EXPECT_EQ(lines.offset(), 0u);
  EXPECT_EQ(lines.end(), 3u);
  EXPECT_TRUE(lines.terminated());
  ASSERT_TRUE(lines.Next());
  EXPECT_EQ(lines.offset(), 3u);
  EXPECT_EQ(lines.end(), 5u);
  EXPECT_FALSE(lines.terminated());
}

}  // namespace
}  // namespace daos
