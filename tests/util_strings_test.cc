#include "util/strings.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace piggyweb::util {
namespace {

TEST(AsciiLower, MapsUppercaseOnly) {
  EXPECT_EQ(ascii_lower('A'), 'a');
  EXPECT_EQ(ascii_lower('Z'), 'z');
  EXPECT_EQ(ascii_lower('a'), 'a');
  EXPECT_EQ(ascii_lower('0'), '0');
  EXPECT_EQ(ascii_lower('-'), '-');
}

TEST(ToLower, Basic) {
  EXPECT_EQ(to_lower("Content-TYPE"), "content-type");
  EXPECT_EQ(to_lower(""), "");
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("Piggy-Filter", "piggy-filter"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "ab"));
}

TEST(Trim, DefaultWhitespace) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, CustomChars) {
  EXPECT_EQ(trim("\"quoted\"", "\""), "quoted");
  EXPECT_EQ(trim("xxabcxx", "x"), "abc");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, TrailingDelimiter) {
  const auto parts = split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(SplitTrimmed, TrimsAndDropsEmpties) {
  const auto parts = split_trimmed(" a ; ;b; ", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("/a/b.html", "/a"));
  EXPECT_FALSE(starts_with("/a", "/a/b"));
  EXPECT_TRUE(ends_with("index.html", ".html"));
  EXPECT_FALSE(ends_with("html", "index.html"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(ParseU64, ValidAndInvalid) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("12a", v));
  EXPECT_FALSE(parse_u64("-3", v));
  EXPECT_FALSE(parse_u64("999999999999999999999999", v));
}

TEST(ParseI64, Negative) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(parse_i64("4 2", v));
}

TEST(ParseDouble, Basics) {
  double v = 0;
  EXPECT_TRUE(parse_double("0.25", v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(parse_double("1e3", v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("x", v));
}

TEST(FormatDouble, ShortFormsStayShort) {
  EXPECT_EQ(format_double(0.2), "0.2");
  EXPECT_EQ(format_double(0.875), "0.875");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1.0 / 3), "0.3333333333333333");
}

// Every finite double, random bit patterns included (subnormals, huge
// exponents, negatives), reads back to the same bits.
TEST(FormatDouble, RoundTripsEveryBitPattern) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const auto bits = rng();
    const double v = std::bit_cast<double>(bits);
    if (!std::isfinite(v)) continue;
    double back = 0;
    ASSERT_TRUE(parse_double(format_double(v), back)) << format_double(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), bits) << format_double(v);
  }
}

TEST(NormalizePath, StripsSchemeAndHost) {
  EXPECT_EQ(normalize_path("http://www.foo.com/a/b.html"), "/a/b.html");
  EXPECT_EQ(normalize_path("https://foo.com/x"), "/x");
}

TEST(NormalizePath, HostOnlyBecomesRoot) {
  // The paper combines http://www.foo.com/ and http://www.foo.com.
  EXPECT_EQ(normalize_path("http://www.foo.com"), "/");
  EXPECT_EQ(normalize_path("http://www.foo.com/"), "/");
}

TEST(NormalizePath, TrailingSlashDropped) {
  EXPECT_EQ(normalize_path("/a/b/"), "/a/b");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path(""), "/");
}

TEST(NormalizePath, AddsLeadingSlash) {
  EXPECT_EQ(normalize_path("a/b.html"), "/a/b.html");
}

TEST(NormalizePath, StripsFragment) {
  EXPECT_EQ(normalize_path("/a/b.html#sec2"), "/a/b.html");
}

TEST(DirectoryPrefix, PaperExamples) {
  // §3.2.1's examples for www.foo.com paths.
  EXPECT_EQ(directory_prefix("/a/b.html", 1), "/a");
  EXPECT_EQ(directory_prefix("/a/d/e.html", 1), "/a");
  EXPECT_EQ(directory_prefix("/f/g.html", 1), "/f");
  EXPECT_EQ(directory_prefix("/a/b.html", 0), "/");
  EXPECT_EQ(directory_prefix("/f/g.html", 0), "/");
}

TEST(DirectoryPrefix, DeeperLevels) {
  EXPECT_EQ(directory_prefix("/a/b/c/d.html", 2), "/a/b");
  EXPECT_EQ(directory_prefix("/a/b/c/d.html", 3), "/a/b/c");
}

TEST(DirectoryPrefix, LevelBeyondDepthKeepsOwnDirectory) {
  EXPECT_EQ(directory_prefix("/a/b/c.html", 9), "/a/b");
  EXPECT_EQ(directory_prefix("/top.html", 3), "/");
}

TEST(DirectoryPrefix, RootFile) {
  EXPECT_EQ(directory_prefix("/index.html", 1), "/");
  EXPECT_EQ(directory_prefix("/index.html", 0), "/");
}

TEST(DirectoryDepth, Counts) {
  EXPECT_EQ(directory_depth("/index.html"), 0);
  EXPECT_EQ(directory_depth("/a/b.html"), 1);
  EXPECT_EQ(directory_depth("/a/b/c/d.gif"), 3);
  EXPECT_EQ(directory_depth(""), 0);
}

TEST(PathExtension, Basics) {
  EXPECT_EQ(path_extension("/a/b.html"), "html");
  EXPECT_EQ(path_extension("/a/b.c/d.GIF"), "GIF");
  EXPECT_EQ(path_extension("/a/noext"), "");
  EXPECT_EQ(path_extension("/a/b."), "");
  EXPECT_EQ(path_extension("/a.b/c"), "");
}

}  // namespace
}  // namespace piggyweb::util
