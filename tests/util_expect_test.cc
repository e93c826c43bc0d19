// Direct coverage for the contract macros: passing checks are no-ops,
// failing checks abort through contract_failure / bounds_failure with the
// expected diagnostic on stderr.
#include "util/expect.h"

#include <cstddef>

#include <gtest/gtest.h>

namespace {

TEST(Expect, PassingChecksAreNoOps) {
  PW_EXPECT(1 + 1 == 2);
  PW_ENSURE(true);
  PW_EXPECT_BOUNDS(0, 1);
  const std::size_t i = 3;
  const std::size_t n = 4;
  PW_EXPECT_BOUNDS(i, n);
}

TEST(ExpectDeathTest, ExpectAbortsWithExpressionAndLocation) {
  EXPECT_DEATH(PW_EXPECT(2 + 2 == 5),
               "piggyweb: precondition failed: 2 \\+ 2 == 5 "
               "\\(.*util_expect_test\\.cc:[0-9]+\\)");
}

TEST(ExpectDeathTest, EnsureAbortsWithInvariantKind) {
  EXPECT_DEATH(PW_ENSURE(false), "piggyweb: invariant failed: false");
}

TEST(ExpectDeathTest, BoundsAbortsPrintingBothValues) {
  const std::size_t i = 5;
  const std::size_t n = 3;
  EXPECT_DEATH(PW_EXPECT_BOUNDS(i, n),
               "piggyweb: bounds check failed: i = 5, n = 3");
}

TEST(ExpectDeathTest, BoundsRejectsEqualIndex) {
  EXPECT_DEATH(PW_EXPECT_BOUNDS(7, 7), "bounds check failed");
}

TEST(ExpectDeathTest, BoundsRejectsNegativeSignedIndex) {
  const int i = -1;
  EXPECT_DEATH(PW_EXPECT_BOUNDS(i, 4), "bounds check failed");
}

TEST(ExpectDeathTest, BoundsEvaluatesArgumentsOnce) {
  int calls = 0;
  const auto next = [&calls]() { return calls++; };
  PW_EXPECT_BOUNDS(next(), 1);
  EXPECT_EQ(calls, 1);
}

TEST(ExpectDeathTest, UnreachableAlwaysAborts) {
  EXPECT_DEATH(PW_UNREACHABLE(), "piggyweb: unreachable failed");
}

}  // namespace
