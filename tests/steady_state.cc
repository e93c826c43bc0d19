#include "steady_state.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "util/expect.h"
#include "util/rng.h"

namespace piggyweb::sim {

namespace {

// Expected number of distinct objects seen in a window of t requests.
double expected_distinct(std::span<const double> pmf, double t) {
  double sum = 0;
  for (const double p : pmf) {
    if (p > 0) sum += 1 - std::exp(-p * t);
  }
  return sum;
}

std::size_t positive_count(std::span<const double> pmf) {
  std::size_t count = 0;
  for (const double p : pmf) {
    PW_EXPECT(p >= 0);
    if (p > 0) ++count;
  }
  return count;
}

}  // namespace

double lru_characteristic_time(std::span<const double> pmf, double capacity) {
  PW_EXPECT(capacity > 0);
  PW_EXPECT(capacity < static_cast<double>(positive_count(pmf)));
  // expected_distinct is 0 at t=0 and increases to the positive count as
  // t -> inf, so a root exists; bracket it by doubling, then bisect.
  double hi = 1;
  while (expected_distinct(pmf, hi) < capacity) {
    hi *= 2;
    PW_ENSURE(hi < 1e30);  // unreachable: the bound above guarantees a root
  }
  double lo = 0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (expected_distinct(pmf, mid) < capacity) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double lru_zipf_steady_state(std::span<const double> pmf, double capacity) {
  if (capacity <= 0) return 0;
  const auto objects = positive_count(pmf);
  if (objects == 0) return 0;
  if (capacity >= static_cast<double>(objects)) return 1;
  const double t = lru_characteristic_time(pmf, capacity);
  double hit = 0;
  for (const double p : pmf) {
    if (p > 0) hit += p * (1 - std::exp(-p * t));
  }
  return hit;
}

double zipf_lru_hit_ratio(std::size_t catalog, double skew, double capacity) {
  const util::ZipfSampler zipf(catalog, skew);
  std::vector<double> pmf(catalog);
  for (std::size_t rank = 0; rank < catalog; ++rank) {
    pmf[rank] = zipf.pmf(rank);
  }
  return lru_zipf_steady_state(pmf, capacity);
}

double lfu_zipf_steady_state(std::span<const double> pmf, double capacity) {
  if (capacity <= 0) return 0;
  std::vector<double> sorted(pmf.begin(), pmf.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double hit = 0;
  double slots = capacity;
  for (const double p : sorted) {
    if (slots <= 0 || p <= 0) break;
    hit += p * std::min(slots, 1.0);
    slots -= 1;
  }
  return std::min(hit, 1.0);
}

}  // namespace piggyweb::sim
