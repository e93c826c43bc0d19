#include "util/stats.h"


#include <gtest/gtest.h>

namespace piggyweb::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook dataset
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Quantiles, MedianOddCount) {
  Quantiles q;
  for (const double x : {3.0, 1.0, 2.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
}

TEST(Quantiles, MedianInterpolates) {
  Quantiles q;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.median(), 2.5);
}

TEST(Quantiles, Extremes) {
  Quantiles q;
  for (int i = 1; i <= 10; ++i) q.add(i);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 10.0);
}

TEST(Quantiles, SingleSample) {
  Quantiles q;
  q.add(7.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 7.0);
}

TEST(Quantiles, CdfBasics) {
  Quantiles q;
  for (int i = 1; i <= 100; ++i) q.add(i);
  EXPECT_DOUBLE_EQ(q.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(q.cdf(50.0), 0.5);
  EXPECT_DOUBLE_EQ(q.cdf(100.0), 1.0);
  EXPECT_DOUBLE_EQ(q.cdf(1000.0), 1.0);
}

TEST(Quantiles, AddAfterQueryResorts) {
  Quantiles q;
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.median(), 10.0);
  q.add(0.0);
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.median(), 5.0);
}

TEST(FrequencyTable, CountsAndTotal) {
  FrequencyTable t;
  t.add(3);
  t.add(3);
  t.add(7, 5);
  EXPECT_EQ(t.count(3), 2u);
  EXPECT_EQ(t.count(7), 5u);
  EXPECT_EQ(t.count(99), 0u);
  EXPECT_EQ(t.total(), 7u);
  EXPECT_EQ(t.distinct(), 2u);
}

TEST(FrequencyTable, ByRankOrdering) {
  FrequencyTable t;
  t.add(0, 1);
  t.add(1, 10);
  t.add(2, 5);
  const auto ranked = t.by_rank();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], 1u);
  EXPECT_EQ(ranked[1], 2u);
  EXPECT_EQ(ranked[2], 0u);
}

TEST(FrequencyTable, ByRankTieBreaksById) {
  FrequencyTable t;
  t.add(5, 3);
  t.add(2, 3);
  const auto ranked = t.by_rank();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 2u);
  EXPECT_EQ(ranked[1], 5u);
}

TEST(FrequencyTable, CoverageShareSkewed) {
  FrequencyTable t;
  t.add(0, 90);  // one heavy hitter
  for (std::uint32_t id = 1; id <= 10; ++id) t.add(id, 1);
  // One of 11 ids covers 90% >= 50%.
  EXPECT_NEAR(t.coverage_share(0.5), 1.0 / 11.0, 1e-9);
}

TEST(FrequencyTable, CoverageShareUniform) {
  FrequencyTable t;
  for (std::uint32_t id = 0; id < 10; ++id) t.add(id, 1);
  EXPECT_NEAR(t.coverage_share(0.5), 0.5, 1e-9);
}

TEST(Percent, Formatting) {
  EXPECT_EQ(percent(0.1234), "12.3%");
  EXPECT_EQ(percent(0.5, 0), "50%");
  EXPECT_EQ(percent(1.0, 2), "100.00%");
}

}  // namespace
}  // namespace piggyweb::util
