#include "util/intern.h"

#include <string>

#include <gtest/gtest.h>

namespace piggyweb::util {
namespace {

TEST(InternTable, DenseSequentialIds) {
  InternTable table;
  EXPECT_EQ(table.intern("a"), 0u);
  EXPECT_EQ(table.intern("b"), 1u);
  EXPECT_EQ(table.intern("c"), 2u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(InternTable, InterningTwiceReturnsSameId) {
  InternTable table;
  const auto id = table.intern("/a/b.html");
  EXPECT_EQ(table.intern("/a/b.html"), id);
  EXPECT_EQ(table.size(), 1u);
}

TEST(InternTable, RoundTrip) {
  InternTable table;
  const auto id = table.intern("/products/index.html");
  EXPECT_EQ(table.str(id), "/products/index.html");
}

TEST(InternTable, FindMissing) {
  InternTable table;
  table.intern("present");
  EXPECT_FALSE(table.find("absent").has_value());
  ASSERT_TRUE(table.find("present").has_value());
  EXPECT_EQ(*table.find("present"), 0u);
}

TEST(InternTable, EmptyStringIsValid) {
  InternTable table;
  const auto id = table.intern("");
  EXPECT_EQ(table.str(id), "");
  EXPECT_TRUE(table.find("").has_value());
}

TEST(InternTable, StableViewsAcrossGrowth) {
  InternTable table;
  const auto id0 = table.intern("first");
  // Force plenty of growth; the string_view for id0 must stay valid
  // because views point into stable per-string storage.
  for (int i = 0; i < 10000; ++i) {
    table.intern(std::string("s").append(std::to_string(i)));
  }
  EXPECT_EQ(table.str(id0), "first");
  EXPECT_EQ(table.size(), 10001u);
}

TEST(InternTable, ManyDistinctStrings) {
  InternTable table;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(table.intern(std::string("k").append(std::to_string(i))),
              static_cast<InternId>(i));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(table.str(static_cast<InternId>(i)),
              std::string("k").append(std::to_string(i)));
  }
}

TEST(InternTable, EmptyTable) {
  InternTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
}

}  // namespace
}  // namespace piggyweb::util
