// obs::Registry — a thread-safe registry of named counters, gauges and
// histograms, the metric substrate behind --metrics-out.
//
// Contract:
//   * registration (counter()/gauge()/log_histogram()) locks the registry
//     map once and returns a stable reference; the hot-path update
//     methods on the returned metric are lock-free;
//   * every metric carries a `deterministic` bit. Deterministic metrics
//     (engine/evaluator counters derived from simulation results) must be
//     bit-identical across thread counts; timing metrics (thread-pool
//     queue depth, task latencies, shard counts) are flagged
//     non-deterministic and excluded from cross-run snapshot diffs
//     (piggyweb_tracecheck --same-metrics-as);
//   * per-shard accumulation composes through merge_from(): counters and
//     histogram buckets add, gauges take the max, so the merged snapshot
//     is independent of merge grouping (the tests_obs associativity
//     property);
//   * snapshots iterate names in sorted order — identical contents always
//     serialize to identical bytes.
//
// The process-global registry pointer (global_metrics()) is the null sink:
// it stays null unless a run scope installs one, and every instrumentation
// site checks it once per run, so disabled overhead is a pointer load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/log_histogram.h"
#include "util/expect.h"

namespace piggyweb::obs {

class Json;

// Monotone event count. Updates are relaxed atomics: totals are exact,
// cross-metric ordering is not promised.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written level with high-watermark updates; merge takes the max
// (the only merge that makes sense for watermarks like queue depth).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void set_max(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Get-or-create by name. Re-registering an existing name returns the
  // same metric; a kind mismatch is a contract failure. `deterministic`
  // is fixed at first registration.
  Counter& counter(std::string_view name, bool deterministic = true);
  Gauge& gauge(std::string_view name, bool deterministic = true);
  // Log-bucketed latency histogram (obs::LogHistogram): lock-free
  // recording, p50/p90/p99/p99.9/max in snapshots and Prometheus
  // export. The default layout spans 1 µs .. 100 s. Timing metrics are
  // non-deterministic by nature, hence the default.
  LogHistogram& log_histogram(std::string_view name, double lo = 1e-6,
                              double hi = 1e2,
                              std::size_t buckets_per_decade = 8,
                              bool deterministic = false);

  // Merge another registry's metrics into this one: counters add, gauges
  // max, histograms (same bucket layout required) add bucket-wise.
  // Addition and max are commutative and associative, so any merge tree
  // over per-shard registries yields the same totals.
  void merge_from(const Registry& other);

  std::size_t metric_count() const;

  // Snapshot object {"counters": [...], "gauges": [...],
  // "histograms": [...]}, each entry {"name", "value"/..., and
  // "deterministic"}; arrays sorted by name.
  Json snapshot() const;
  std::string to_json(int indent = 2) const;

  // Prometheus text exposition (metric names have [^a-zA-Z0-9_:] mapped
  // to '_'); histograms emit the conventional _bucket/_sum/_count series.
  std::string to_prometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kLogHistogram };
  struct Entry {
    Kind kind;
    bool deterministic;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> log_histogram;
  };

  mutable std::mutex mutex_;
  // Sorted map: snapshot order == name order, deterministic by design.
  std::map<std::string, Entry, std::less<>> entries_ PW_GUARDED_BY(mutex_);
};

// Process-global metrics sink. Null (the default) disables all metric
// publication; obs::RunScope installs/uninstalls it around a run.
Registry* global_metrics();
void set_global_metrics(Registry* registry);

}  // namespace piggyweb::obs
