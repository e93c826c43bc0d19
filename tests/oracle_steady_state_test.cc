// Analytical steady-state oracles vs the real cache.
//
// Che's approximation gives a closed-form steady-state hit ratio for an
// LRU cache under the independent reference model. These tests (a) pin
// the oracle's own mathematical properties — monotonicity, bounds, the
// perfect-LFU ceiling — and (b) drive the production proxy::ProxyCache
// over long seeded Zipf request streams and require the measured hit
// ratio to land within a small tolerance of the prediction. A simulator
// bug that skews replacement order (a misplaced touch, a wrong victim)
// moves the measured ratio well outside the tolerance.
#include "steady_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "proxy/cache.h"
#include "util/rng.h"

namespace piggyweb {
namespace {

// Measured steady-state hit ratio of the production cache under an IRM
// Zipf stream: unit-size objects, never-expiring entries, hits counted
// after a warm-up long enough to reach steady state.
double simulate_lru_hit_ratio(std::size_t catalog, double skew,
                              std::uint64_t capacity, std::uint64_t seed) {
  proxy::CacheConfig config;
  config.capacity_bytes = capacity;  // unit sizes: capacity in objects
  config.freshness_interval = std::int64_t{1} << 40;
  config.policy = proxy::ReplacementPolicy::kLru;
  proxy::ProxyCache cache(config);

  util::Rng rng(seed);
  const util::ZipfSampler zipf(catalog, skew);
  const std::size_t warmup = 100'000;
  const std::size_t measured = 400'000;
  std::uint64_t hits = 0;
  util::TimePoint now{0};
  for (std::size_t i = 0; i < warmup + measured; ++i) {
    const auto rank = zipf(rng);
    const proxy::CacheKey key{1, static_cast<util::InternId>(rank)};
    if (cache.lookup(key, now) == proxy::LookupOutcome::kMiss) {
      cache.insert(key, 1, /*last_modified=*/0, now);
    } else if (i >= warmup) {
      ++hits;
    }
    now = now + 1;
  }
  return static_cast<double>(hits) / static_cast<double>(measured);
}

std::vector<double> zipf_pmf(std::size_t catalog, double skew) {
  const util::ZipfSampler zipf(catalog, skew);
  std::vector<double> pmf(catalog);
  for (std::size_t rank = 0; rank < catalog; ++rank) {
    pmf[rank] = zipf.pmf(rank);
  }
  return pmf;
}

// Sampling noise over 400k requests is well under a point; the
// approximation error dominates. 0.03 absolute keeps the test meaningful
// (a replacement-order bug shifts the ratio by far more) without flaking.
constexpr double kTolerance = 0.03;

TEST(SteadyStateOracle, MatchesLruSimulationZipf08Small) {
  const double predicted = sim::zipf_lru_hit_ratio(2000, 0.8, 50);
  const double measured = simulate_lru_hit_ratio(2000, 0.8, 50, 0xabcdef01);
  EXPECT_NEAR(predicted, measured, kTolerance);
}

TEST(SteadyStateOracle, MatchesLruSimulationZipf08Large) {
  const double predicted = sim::zipf_lru_hit_ratio(2000, 0.8, 200);
  const double measured = simulate_lru_hit_ratio(2000, 0.8, 200, 0x12345678);
  EXPECT_NEAR(predicted, measured, kTolerance);
}

TEST(SteadyStateOracle, MatchesLruSimulationZipf10Small) {
  const double predicted = sim::zipf_lru_hit_ratio(2000, 1.0, 50);
  const double measured = simulate_lru_hit_ratio(2000, 1.0, 50, 0x5eed5eed);
  EXPECT_NEAR(predicted, measured, kTolerance);
}

TEST(SteadyStateOracle, MatchesLruSimulationZipf10Large) {
  const double predicted = sim::zipf_lru_hit_ratio(2000, 1.0, 200);
  const double measured = simulate_lru_hit_ratio(2000, 1.0, 200, 0x0badf00d);
  EXPECT_NEAR(predicted, measured, kTolerance);
}

TEST(SteadyStateOracle, HitRatioIsWithinBounds) {
  for (const double skew : {0.6, 0.8, 1.0, 1.2}) {
    for (const double capacity : {1.0, 10.0, 100.0, 1000.0}) {
      const double h = sim::zipf_lru_hit_ratio(2000, skew, capacity);
      EXPECT_GT(h, 0.0) << "skew " << skew << " capacity " << capacity;
      EXPECT_LT(h, 1.0) << "skew " << skew << " capacity " << capacity;
    }
  }
}

TEST(SteadyStateOracle, HitRatioIncreasesWithCapacity) {
  double previous = 0;
  for (const double capacity : {5.0, 20.0, 80.0, 320.0, 1280.0}) {
    const double h = sim::zipf_lru_hit_ratio(2000, 0.8, capacity);
    EXPECT_GT(h, previous) << "capacity " << capacity;
    previous = h;
  }
}

TEST(SteadyStateOracle, HitRatioIncreasesWithSkew) {
  // More concentrated popularity -> a fixed-size cache covers more mass.
  double previous = 0;
  for (const double skew : {0.2, 0.5, 0.8, 1.1, 1.4}) {
    const double h = sim::zipf_lru_hit_ratio(2000, skew, 100);
    EXPECT_GT(h, previous) << "skew " << skew;
    previous = h;
  }
}

TEST(SteadyStateOracle, FullCapacityIsCertainHit) {
  EXPECT_DOUBLE_EQ(sim::zipf_lru_hit_ratio(500, 0.8, 500), 1.0);
  EXPECT_DOUBLE_EQ(sim::zipf_lru_hit_ratio(500, 0.8, 900), 1.0);
}

TEST(SteadyStateOracle, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(sim::lru_zipf_steady_state({}, 10), 0.0);
  const std::vector<double> pmf = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(sim::lru_zipf_steady_state(pmf, 0), 0.0);
  EXPECT_DOUBLE_EQ(sim::lru_zipf_steady_state(pmf, 2), 1.0);
}

TEST(SteadyStateOracle, LfuIsUpperBoundOnLru) {
  for (const double skew : {0.6, 0.9, 1.2}) {
    const auto pmf = zipf_pmf(2000, skew);
    for (const double capacity : {10.0, 50.0, 250.0}) {
      const double lru = sim::lru_zipf_steady_state(pmf, capacity);
      const double lfu = sim::lfu_zipf_steady_state(pmf, capacity);
      EXPECT_GE(lfu, lru) << "skew " << skew << " capacity " << capacity;
    }
  }
}

TEST(SteadyStateOracle, LfuIsTopCapacityMass) {
  // Zipf pmf is already sorted descending, so perfect LFU pins the first
  // C ranks.
  const auto pmf = zipf_pmf(100, 1.0);
  double expected = 0;
  for (std::size_t rank = 0; rank < 10; ++rank) expected += pmf[rank];
  EXPECT_NEAR(sim::lfu_zipf_steady_state(pmf, 10), expected, 1e-12);
}

TEST(SteadyStateOracle, CharacteristicTimeGrowsWithCapacity) {
  const auto pmf = zipf_pmf(2000, 0.8);
  const double t_small = sim::lru_characteristic_time(pmf, 50);
  const double t_large = sim::lru_characteristic_time(pmf, 500);
  EXPECT_GT(t_small, 0.0);
  EXPECT_GT(t_large, t_small);
}

TEST(SteadyStateOracle, CharacteristicTimeSolvesTheFixedPoint) {
  const auto pmf = zipf_pmf(1000, 0.9);
  const double capacity = 120;
  const double t = sim::lru_characteristic_time(pmf, capacity);
  double distinct = 0;
  for (const double p : pmf) distinct += 1 - std::exp(-p * t);
  EXPECT_NEAR(distinct, capacity, 1e-6);
}

}  // namespace
}  // namespace piggyweb
