#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/expect.h"

namespace piggyweb::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Quantiles::ensure_sorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Quantiles::quantile(double q) {
  PW_EXPECT(q >= 0.0 && q <= 1.0);
  PW_EXPECT(!samples_.empty());
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double Quantiles::cdf(double x) {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

void FrequencyTable::add(std::uint32_t id, std::uint64_t delta) {
  if (id >= counts_.size()) counts_.resize(id + 1, 0);
  counts_[id] += delta;
  total_ += delta;
}

std::uint64_t FrequencyTable::count(std::uint32_t id) const {
  return id < counts_.size() ? counts_[id] : 0;
}

std::size_t FrequencyTable::distinct() const {
  std::size_t d = 0;
  for (const auto c : counts_) d += (c > 0);
  return d;
}

std::vector<std::uint32_t> FrequencyTable::by_rank() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(counts_.size());
  for (std::uint32_t id = 0; id < counts_.size(); ++id) {
    if (counts_[id] > 0) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (counts_[a] != counts_[b]) return counts_[a] > counts_[b];
    return a < b;
  });
  return ids;
}

double FrequencyTable::coverage_share(double fraction) const {
  PW_EXPECT(fraction >= 0.0 && fraction <= 1.0);
  const auto ranked = by_rank();
  if (ranked.empty() || total_ == 0) return 0.0;
  const auto target = static_cast<double>(total_) * fraction;
  double covered = 0;
  std::size_t used = 0;
  for (const auto id : ranked) {
    if (covered >= target) break;
    covered += static_cast<double>(counts_[id]);
    ++used;
  }
  return static_cast<double>(used) / static_cast<double>(ranked.size());
}

std::string percent(double fraction, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace piggyweb::util
