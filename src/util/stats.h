// Streaming statistics used throughout the evaluation harness: running
// moments (Welford), exact quantiles over collected samples (the figure
// benches report medians and full CDFs, e.g. Figure 1(b)'s interarrival
// distribution), and dense-id frequency tables.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace piggyweb::util {

// Welford's online algorithm: numerically stable mean/variance.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Sample collector with exact quantiles. Suitable for up to a few million
// samples (the scaled logs); quantile() sorts lazily and caches.
class Quantiles {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // q in [0, 1]; linear interpolation between order statistics.
  double quantile(double q);
  double median() { return quantile(0.5); }

  // Fraction of samples <= x (empirical CDF).
  double cdf(double x);

  void reserve(std::size_t n) { samples_.reserve(n); }

 private:
  void ensure_sorted();
  std::vector<double> samples_;
  bool sorted_ = true;
};

// A counter keyed by small dense ids; convenience for frequency tables.
class FrequencyTable {
 public:
  void add(std::uint32_t id, std::uint64_t delta = 1);
  std::uint64_t count(std::uint32_t id) const;
  std::uint64_t total() const { return total_; }
  std::size_t distinct() const;

  // Ids sorted by descending count (ties by ascending id, deterministic).
  std::vector<std::uint32_t> by_rank() const;

  // Smallest fraction of distinct ids covering `fraction` of all counts
  // (e.g. "top 1% of servers account for 59% of resources").
  double coverage_share(double fraction) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Format helper: fixed-precision percentage ("12.3%").
std::string percent(double fraction, int decimals = 1);

}  // namespace piggyweb::util
