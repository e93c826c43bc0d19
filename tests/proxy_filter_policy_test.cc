#include "proxy/filter_policy.h"

#include <gtest/gtest.h>

namespace piggyweb::proxy {
namespace {

FilterPolicyConfig base_config() {
  FilterPolicyConfig config;
  config.base.max_elements = 10;
  config.rpv.timeout = 60;
  config.rpv.max_entries = 8;
  return config;
}

TEST(FilterPolicy, BasePreferencesCarried) {
  FilterPolicy policy(base_config());
  const auto filter = policy.filter_for(/*server=*/1, {0});
  EXPECT_TRUE(filter.enabled);
  EXPECT_EQ(filter.max_elements, 10u);
  EXPECT_TRUE(filter.rpv.empty());
}

TEST(FilterPolicy, RpvAccumulatesPerServer) {
  FilterPolicy policy(base_config());
  policy.on_piggyback(1, /*volume=*/5, {100});
  policy.on_piggyback(1, /*volume=*/6, {110});
  policy.on_piggyback(2, /*volume=*/7, {110});

  const auto f1 = policy.filter_for(1, {120});
  EXPECT_TRUE(f1.enabled);  // no frequency control by default
  ASSERT_EQ(f1.rpv.size(), 2u);
  EXPECT_EQ(f1.rpv[0], 5u);
  EXPECT_EQ(f1.rpv[1], 6u);

  const auto f2 = policy.filter_for(2, {120});
  ASSERT_EQ(f2.rpv.size(), 1u);
  EXPECT_EQ(f2.rpv[0], 7u);
}

TEST(FilterPolicy, RpvEntriesExpire) {
  FilterPolicy policy(base_config());
  policy.on_piggyback(1, 5, {100});
  EXPECT_FALSE(policy.filter_for(1, {150}).rpv.empty());
  EXPECT_TRUE(policy.filter_for(1, {161}).rpv.empty());
}

TEST(FilterPolicy, UseRpvOffSendsNoList) {
  auto config = base_config();
  config.use_rpv = false;
  FilterPolicy policy(config);
  policy.on_piggyback(1, 5, {100});
  EXPECT_TRUE(policy.filter_for(1, {110}).rpv.empty());
}

FilterPolicyConfig min_interval_config(util::Seconds interval) {
  auto config = base_config();
  config.min_piggyback_interval = interval;
  return config;
}

TEST(FilterPolicy, MinIntervalFrequencyControl) {
  FilterPolicy policy(min_interval_config(60));
  EXPECT_TRUE(policy.filter_for(1, {100}).enabled);
  policy.on_piggyback(1, 5, {100});
  EXPECT_FALSE(policy.filter_for(1, {130}).enabled);
  EXPECT_TRUE(policy.filter_for(1, {160}).enabled);
  // Another server is unaffected.
  EXPECT_TRUE(policy.filter_for(2, {130}).enabled);
}

TEST(FilterPolicy, OnlyPiggybacksArmFrequencyControl) {
  // Asking for a filter must not arm the interval; only observed
  // piggybacks do (otherwise a burst of suppressed requests would stay
  // suppressed forever).
  FilterPolicy policy(min_interval_config(60));
  EXPECT_TRUE(policy.filter_for(1, {0}).enabled);
  EXPECT_TRUE(policy.filter_for(1, {1}).enabled);
  policy.on_piggyback(1, 5, {1});
  EXPECT_FALSE(policy.filter_for(1, {2}).enabled);
}

TEST(FilterPolicy, DisabledFilterKeepsBasePrefsIrrelevant) {
  FilterPolicy policy(min_interval_config(60));
  policy.on_piggyback(1, 5, {100});
  const auto filter = policy.filter_for(1, {110});
  EXPECT_FALSE(filter.enabled);
  // A disabled filter must not leak the RPV list (it is pointless there).
  EXPECT_TRUE(filter.rpv.empty());
}

}  // namespace
}  // namespace piggyweb::proxy
