// Pairwise implication counters (§3.3.1).
//
// p(s|r) is the proportion of requests for r that are followed by a
// request for s from the same source within T seconds; the server
// estimates it from counters c(s|r) and c(r). Counting every pair can need
// n^2 counters, so the builder supports the paper's mitigations:
//   * random sampling — a missing counter c(s|r) is created with
//     probability inversely proportional to freq(r) * p_t, so pairs that
//     genuinely co-occur get counters early while noise pairs usually
//     don't get counted at all;
//   * directory restriction — only count pairs sharing a k-level
//     directory prefix (also the basis of "combined" volumes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.h"
#include "util/flat_map.h"
#include "util/intern.h"
#include "util/rng.h"
#include "util/time.h"

namespace piggyweb::volume {

struct PairCounterConfig {
  util::Seconds window = 300;  // T: successor window

  // Sampled counter creation. With sampling off every observed pair gets a
  // counter (exact counts).
  bool sample_counters = false;
  double sample_threshold = 0.2;  // the p_t the sampler is tuned for
  double sample_k = 4.0;          // creation prob = min(1, k/(freq(r)*p_t))

  // Only count pairs whose paths share this directory-prefix level
  // (0 = no restriction).
  int restrict_prefix_level = 0;

  std::uint64_t seed = 0xC0DE5;
};

struct PairCount {
  std::uint64_t count = 0;           // co-occurrences observed
  std::uint64_t cr_at_creation = 0;  // c(r) when the counter was created
};

// Result of a counting pass over one trace.
class PairCounts {
 public:
  static std::uint64_t key(util::InternId r, util::InternId s) {
    return (static_cast<std::uint64_t>(r) << 32) | s;
  }

  // Estimated p(s|r). For sampled counters the denominator is the number
  // of r-occurrences since the counter existed, which keeps the estimate
  // unbiased for late-created counters.
  double probability(util::InternId r, util::InternId s) const;

  std::uint64_t occurrences(util::InternId r) const;
  std::uint64_t pair_count(util::InternId r, util::InternId s) const;

  std::size_t counter_count() const { return pairs_.size(); }

  const util::FlatMap<std::uint64_t, PairCount>& pairs() const {
    return pairs_;
  }
  const std::vector<std::uint64_t>& resource_occurrences() const {
    return c_r_;
  }

  // All estimated probabilities (for Figure 5(b)'s distribution).
  std::vector<double> all_probabilities() const;

 private:
  friend class PairCounterBuilder;
  std::vector<std::uint64_t> c_r_;  // indexed by resource id
  util::FlatMap<std::uint64_t, PairCount> pairs_;
};

// Compact per-source observation log — the only training state pair
// counting actually needs from a trace: (time, path) per request grouped
// by source, plus resource popularity. Feed time-ordered request windows
// through observe_window() (a streaming TraceView batch at a time, or one
// whole materialized span); per-source slices inherit the feed order, so
// the result is independent of the window partition. ~12 bytes/request
// instead of a full materialized Request — this is what bounds streaming
// probability-volume training memory.
class PairObservations {
 public:
  struct Entry {
    util::TimePoint time;
    util::InternId path = 0;
  };

  void observe_window(std::span<const trace::Request> window);

  // Number of per-source slices (max observed source id + 1).
  std::size_t source_count() const { return by_source_.size(); }
  std::span<const Entry> slice(std::size_t source) const {
    return by_source_[source];
  }
  // Occurrence totals indexed by path id (max observed path id + 1).
  const std::vector<std::uint64_t>& popularity() const { return popularity_; }

 private:
  std::vector<std::vector<Entry>> by_source_;
  std::vector<std::uint64_t> popularity_;
};

// Streams a time-sorted trace and produces PairCounts. Single server logs
// only (pairs are per-source, within one server's resource space).
class PairCounterBuilder {
 public:
  explicit PairCounterBuilder(const PairCounterConfig& config);

  // The trace must be sorted by time. Only requests whose resource was
  // seen at least `min_resource_count` times are considered (the paper
  // drops resources with <10 accesses before volume construction).
  // Delegates to the observation overload below.
  PairCounts build(const trace::Trace& trace,
                   std::uint64_t min_resource_count = 1);

  // Counts from a pre-built observation log. `paths` must resolve the
  // log's path ids (it also sizes the occurrence vector, so results are
  // identical to the Trace overload). Sources are processed in ascending
  // id order with each slice in feed order — exactly the serial trace
  // pass, so the sampler's RNG draw sequence (and therefore the counter
  // set) is bit-identical.
  PairCounts build(const PairObservations& observations,
                   util::StringTableView paths,
                   std::uint64_t min_resource_count = 1);

 private:
  PairCounterConfig config_;
};

}  // namespace piggyweb::volume
