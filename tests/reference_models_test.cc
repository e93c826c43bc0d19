// Differential tests: drive the production data structures and naive
// reference implementations with the same randomized operation sequences
// and require identical observable behaviour. Catches whole classes of
// bookkeeping bugs (split FIFO partitions, iterator juggling, eviction
// order) that example-based tests miss.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "proxy/cache.h"
#include "sim/eval_core.h"
#include "util/rng.h"
#include "util/strings.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"

namespace piggyweb::sim::detail {

// Readable failures for the accumulator differential below.
void PrintTo(const ResourceState& state, std::ostream* os) {
  *os << "{access " << state.last_access << ", mention "
      << state.last_mention << ", open " << state.interval_open
      << (state.fulfilled ? ", fulfilled}" : "}");
}

}  // namespace piggyweb::sim::detail

namespace piggyweb {
namespace {

// --- Replacement policy reference -------------------------------------------

// Naive model of ProxyCache: a std::map of entries and a linear scan for
// the victim, with each policy's victim rule and tie rule stated once.
//   * LRU, LRU-Piggyback: evict the least recently used entry. Insert and
//     lookup are uses; a piggyback refresh is a use only under
//     LRU-Piggyback.
//   * SIZE: evict the largest entry; among equal sizes, the newest
//     insertion. Nothing but an insert orders it.
//   * GD-Size, GD-Size-Hint: evict the lowest H = L + credit, credit
//     1/size (GD-Size-Hint: (1 + 9 hint)/size); among equal H, the entry
//     whose H was set longest ago. Insert and each use set H at the
//     current L, a hint sets it only under GD-Size-Hint, and an eviction
//     raises L to the victim's H.
class ReferenceCache {
 public:
  ReferenceCache(proxy::ReplacementPolicy policy, std::uint64_t capacity,
                 util::Seconds delta)
      : policy_(policy), capacity_(capacity), delta_(delta) {}

  proxy::LookupOutcome lookup(std::uint64_t key, util::Seconds now) {
    ++stats_.lookups;
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return proxy::LookupOutcome::kMiss;
    }
    use(it->second);
    if (now < it->second.expires) {
      ++stats_.fresh_hits;
      return proxy::LookupOutcome::kFreshHit;
    }
    ++stats_.stale_hits;
    return proxy::LookupOutcome::kStaleHit;
  }

  void insert(std::uint64_t key, std::uint64_t size,
              std::int64_t last_modified, util::Seconds now) {
    if (size > capacity_) return;
    entries_.erase(key);
    while (!entries_.empty() && used() + size > capacity_) {
      const auto victim = pick_victim();
      if (gd()) inflation_ = entries_.at(victim).h;
      entries_.erase(victim);
      ++stats_.evictions;
    }
    Entry& entry = entries_[key];
    entry.size = size;
    entry.last_modified = last_modified;
    entry.expires = now + delta_;
    entry.inserted = ++clock_;
    use(entry);
    ++stats_.insertions;
  }

  void revalidate(std::uint64_t key, util::Seconds now) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) it->second.expires = now + delta_;
  }

  proxy::ProxyCache::PiggybackEffect apply_piggyback(
      std::uint64_t key, std::int64_t last_modified, util::Seconds now) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      return proxy::ProxyCache::PiggybackEffect::kNotCached;
    }
    if (it->second.last_modified < last_modified) {
      entries_.erase(it);
      ++stats_.piggyback_invalidations;
      return proxy::ProxyCache::PiggybackEffect::kInvalidated;
    }
    it->second.expires = now + delta_;
    if (policy_ == proxy::ReplacementPolicy::kLruPiggyback) use(it->second);
    ++stats_.piggyback_refreshes;
    return proxy::ProxyCache::PiggybackEffect::kRefreshed;
  }

  void set_hint(std::uint64_t key, double hint) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return;
    it->second.hint = hint;
    if (policy_ == proxy::ReplacementPolicy::kGdSizeHint) {
      set_h(it->second);
    }
  }

  bool contains(std::uint64_t key) const { return entries_.count(key) > 0; }
  std::uint64_t used() const {
    std::uint64_t total = 0;
    for (const auto& [key, entry] : entries_) total += entry.size;
    return total;
  }
  const proxy::CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t size = 0;
    std::int64_t last_modified = 0;
    util::Seconds expires = 0;
    double hint = 0;
    double h = 0;                // GD-Size H
    std::uint64_t last_use = 0;  // clock of the latest use
    std::uint64_t inserted = 0;  // clock of the insertion
    std::uint64_t h_set = 0;     // clock of the latest change to H
  };

  bool gd() const {
    return policy_ == proxy::ReplacementPolicy::kGdSize ||
           policy_ == proxy::ReplacementPolicy::kGdSizeHint;
  }
  void use(Entry& entry) {
    entry.last_use = ++clock_;
    set_h(entry);
  }
  void set_h(Entry& entry) {
    const auto size =
        static_cast<double>(std::max<std::uint64_t>(1, entry.size));
    const double credit =
        policy_ == proxy::ReplacementPolicy::kGdSizeHint
            ? (1.0 + 9.0 * entry.hint) / size
            : 1.0 / size;
    entry.h = inflation_ + credit;
    entry.h_set = ++clock_;
  }
  // True when `a` is evicted before `b`.
  bool evicts_first(const Entry& a, const Entry& b) const {
    switch (policy_) {
      case proxy::ReplacementPolicy::kLru:
      case proxy::ReplacementPolicy::kLruPiggyback:
        return a.last_use < b.last_use;
      case proxy::ReplacementPolicy::kSize:
        if (a.size != b.size) return a.size > b.size;
        return a.inserted > b.inserted;
      case proxy::ReplacementPolicy::kGdSize:
      case proxy::ReplacementPolicy::kGdSizeHint:
        if (a.h != b.h) return a.h < b.h;
        return a.h_set < b.h_set;
    }
    return false;
  }
  std::uint64_t pick_victim() const {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (evicts_first(it->second, victim->second)) victim = it;
    }
    return victim->first;
  }

  proxy::ReplacementPolicy policy_;
  std::uint64_t capacity_;
  util::Seconds delta_;
  std::map<std::uint64_t, Entry> entries_;
  double inflation_ = 0;  // GD-Size L
  std::uint64_t clock_ = 0;
  proxy::CacheStats stats_;
};

auto stats_tuple(const proxy::CacheStats& s) {
  return std::tuple(s.lookups, s.fresh_hits, s.stale_hits, s.misses,
                    s.insertions, s.evictions, s.piggyback_refreshes,
                    s.piggyback_invalidations);
}

// Drives ProxyCache and ReferenceCache with the same random lookups,
// inserts, revalidations, piggybacks and hints, and compares every
// outcome, the byte count, membership over the whole key space and the
// stats after each one. Sizes come from a small set so that SIZE ties and
// GD-Size H ties are common.
void expect_matches_reference(proxy::ReplacementPolicy policy,
                              std::uint64_t seed) {
  constexpr std::uint64_t kCapacity = 2000;
  constexpr util::Seconds kDelta = 500;
  constexpr std::uint64_t kSizes[] = {100, 200, 200, 400, 700};
  constexpr double kHints[] = {0.0, 0.25, 0.5, 1.0};
  constexpr util::InternId kServers = 2;
  constexpr util::InternId kPaths = 30;
  proxy::CacheConfig config;
  config.capacity_bytes = kCapacity;
  config.freshness_interval = kDelta;
  config.policy = policy;
  proxy::ProxyCache cache(config);
  ReferenceCache reference(policy, kCapacity, kDelta);

  util::Rng rng(seed);
  util::Seconds now = 0;
  for (int op = 0; op < 4000; ++op) {
    now += static_cast<util::Seconds>(rng.below(40));
    const proxy::CacheKey key{static_cast<util::InternId>(rng.below(kServers)),
                              static_cast<util::InternId>(rng.below(kPaths))};
    const auto packed = key.packed();
    const auto last_modified = static_cast<std::int64_t>(rng.below(4));
    const auto kind = rng.below(10);
    if (kind < 4) {
      ASSERT_EQ(cache.lookup(key, {now}), reference.lookup(packed, now))
          << "op " << op;
    } else if (kind < 7) {
      // One insert in 50 is larger than the whole cache.
      const auto size = rng.below(50) == 0 ? kCapacity + 1
                                           : kSizes[rng.below(5)];
      cache.insert(key, size, last_modified, {now});
      reference.insert(packed, size, last_modified, now);
    } else if (kind < 8) {
      cache.revalidate(key, {now});
      reference.revalidate(packed, now);
    } else if (kind < 9) {
      ASSERT_EQ(cache.apply_piggyback(key, last_modified, {now}),
                reference.apply_piggyback(packed, last_modified, now))
          << "op " << op;
    } else {
      const double hint = kHints[rng.below(4)];
      cache.set_hint(key, hint);
      reference.set_hint(packed, hint);
    }
    ASSERT_EQ(cache.used_bytes(), reference.used()) << "op " << op;
    ASSERT_EQ(stats_tuple(cache.stats()), stats_tuple(reference.stats()))
        << "op " << op;
    for (util::InternId server = 0; server < kServers; ++server) {
      for (util::InternId path = 0; path < kPaths; ++path) {
        const proxy::CacheKey probe{server, path};
        ASSERT_EQ(cache.contains(probe), reference.contains(probe.packed()))
            << "op " << op << " server " << server << " path " << path;
      }
    }
  }
  // The random mix must have reached the eviction path.
  EXPECT_GT(cache.stats().evictions, 100u);
}

class LruDifferential : public ::testing::TestWithParam<std::uint64_t> {};
class SizeDifferential : public ::testing::TestWithParam<std::uint64_t> {};
class GdSizeDifferential : public ::testing::TestWithParam<std::uint64_t> {};
class LruPiggybackDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};
class GdSizeHintDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruDifferential, MatchesReferenceOverRandomOps) {
  expect_matches_reference(proxy::ReplacementPolicy::kLru, GetParam());
}
TEST_P(SizeDifferential, MatchesReferenceOverRandomOps) {
  expect_matches_reference(proxy::ReplacementPolicy::kSize, GetParam());
}
TEST_P(GdSizeDifferential, MatchesReferenceOverRandomOps) {
  expect_matches_reference(proxy::ReplacementPolicy::kGdSize, GetParam());
}
TEST_P(LruPiggybackDifferential, MatchesReferenceOverRandomOps) {
  expect_matches_reference(proxy::ReplacementPolicy::kLruPiggyback,
                           GetParam());
}
TEST_P(GdSizeHintDifferential, MatchesReferenceOverRandomOps) {
  expect_matches_reference(proxy::ReplacementPolicy::kGdSizeHint,
                           GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruDifferential,
                         ::testing::Values(1, 2, 3, 42, 1998));
INSTANTIATE_TEST_SUITE_P(Seeds, SizeDifferential,
                         ::testing::Values(1, 2, 3, 42, 1998));
INSTANTIATE_TEST_SUITE_P(Seeds, GdSizeDifferential,
                         ::testing::Values(1, 2, 3, 42, 1998));
INSTANTIATE_TEST_SUITE_P(Seeds, LruPiggybackDifferential,
                         ::testing::Values(1, 2, 3, 42, 1998));
INSTANTIATE_TEST_SUITE_P(Seeds, GdSizeHintDifferential,
                         ::testing::Values(1, 2, 3, 42, 1998));

// --- Directory volume reference ---------------------------------------------

// Naive model of the §3.2.1 volume and its tie contract. Each volume is a
// flat vector of members; a member remembers its last access, its
// (type, size) partition and the sequence number of its last touch, which
// orders a partition's FIFO (latest touch first). Then:
//   * candidates: last access descending, then partition ascending, then
//     latest touch first, capped at max_candidates;
//   * trim: while over max_volume_elements, evict the tail (earliest touch)
//     of the partition whose tail was accessed longest ago; on equal
//     times the lowest partition loses its tail.
class ReferenceDirectory {
 public:
  explicit ReferenceDirectory(const volume::DirectoryVolumeConfig& config)
      : config_(config) {}

  std::vector<std::string> on_request(const std::string& path,
                                      util::Seconds now,
                                      trace::ContentType type,
                                      std::uint64_t size) {
    auto& members = volumes_[std::string(
        util::directory_prefix(path, config_.level))];
    const auto partition =
        static_cast<std::size_t>(type) * 2 +
        (size >= config_.large_size_threshold ? 1 : 0);
    const auto it = std::find_if(
        members.begin(), members.end(),
        [&path](const Member& m) { return m.path == path; });
    if (it != members.end()) {
      *it = {path, now, partition, ++touches_};
    } else {
      members.push_back({path, now, partition, ++touches_});
    }
    trim(members);

    auto order = members;
    std::sort(order.begin(), order.end(),
              [](const Member& a, const Member& b) {
                if (a.last_access != b.last_access) {
                  return a.last_access > b.last_access;
                }
                if (a.partition != b.partition) {
                  return a.partition < b.partition;
                }
                return a.touch > b.touch;
              });
    std::vector<std::string> out;
    for (const auto& m : order) {
      if (out.size() == config_.max_candidates) break;
      out.push_back(m.path);
    }
    return out;
  }

 private:
  struct Member {
    std::string path;
    util::Seconds last_access;
    std::size_t partition;
    std::uint64_t touch;
  };

  void trim(std::vector<Member>& members) const {
    while (members.size() > config_.max_volume_elements) {
      // Tail of each partition: its member with the earliest touch.
      std::map<std::size_t, std::size_t> tails;  // partition -> member
      for (std::size_t i = 0; i < members.size(); ++i) {
        const auto [tail, fresh] = tails.emplace(members[i].partition, i);
        if (!fresh && members[i].touch < members[tail->second].touch) {
          tail->second = i;
        }
      }
      // Ascending partitions, strict `<`: the lowest wins a tie.
      std::size_t victim = members.size();
      for (const auto& [partition, i] : tails) {
        if (victim == members.size() ||
            members[i].last_access < members[victim].last_access) {
          victim = i;
        }
      }
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }

  volume::DirectoryVolumeConfig config_;
  std::uint64_t touches_ = 0;
  std::map<std::string, std::vector<Member>> volumes_;
};

class DirectoryDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DirectoryDifferential, MatchesReferenceOverRandomRequests) {
  // A pool of paths over a small tree so prefixes collide heavily.
  std::vector<std::string> pool;
  for (const char* dir : {"", "/a", "/a/x", "/b", "/b/y/z"}) {
    for (int i = 0; i < 5; ++i) {
      pool.push_back(std::string(dir) + "/r" + std::to_string(i) + ".html");
    }
  }

  // (max_volume_elements, max_candidates): no trim and no cap, then
  // volumes small enough that trim runs, with the cap below and above
  // the volume size.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2000, 200}, {6, 4}, {4, 6}, {2, 2}};
  for (const auto& [max_volume, max_candidates] : shapes) {
    const int level = GetParam();
    volume::DirectoryVolumeConfig config;
    config.level = level;
    config.max_volume_elements = max_volume;
    config.max_candidates = max_candidates;
    volume::DirectoryVolumes volumes(config);
    util::InternTable paths;
    volumes.bind_paths(paths);
    ReferenceDirectory reference(config);

    util::Rng rng(0xD1FF + static_cast<std::uint64_t>(level) + max_volume);
    util::Seconds now = 0;
    for (int op = 0; op < 2500; ++op) {
      // Whole-second clock: most steps stay in the same second, so ties
      // on last access are the common case, as with embedded images.
      now += static_cast<util::Seconds>(rng.below(3) == 0 ? 1 : 0);
      const auto& path = pool[rng.below(pool.size())];
      core::VolumeRequest request;
      request.server = 0;
      request.path = paths.intern(path);
      request.time = {now};
      // Every type x size class; a resource changes class now and then,
      // which migrates it between partitions.
      request.type = static_cast<trace::ContentType>(rng.below(3));
      request.size = rng.chance(0.5) ? 100 : config.large_size_threshold;
      const auto prediction = volumes.on_request(request);
      const auto expected =
          reference.on_request(path, now, request.type, request.size);
      ASSERT_EQ(prediction.resources.size(), expected.size())
          << "op " << op << " path " << path << " max_volume " << max_volume;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(paths.str(prediction.resources[i]), expected[i])
            << "op " << op << " slot " << i << " max_volume " << max_volume;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, DirectoryDifferential,
                         ::testing::Values(0, 1, 2));

// --- Pair counter vs naive per-source model ---------------------------------

// Naive model of the §3.3.1 counting pass: group the trace by source in
// ascending source id and, for every qualifying request r, count each
// distinct qualifying successor s requested within the window, creating
// c(s|r) at the c(r) reached just before this occurrence. A sampled
// config draws one creation coin per missing counter, in that same order.
struct ReferencePairCounts {
  std::map<std::uint64_t, volume::PairCount> pairs;
  std::map<util::InternId, std::uint64_t> occurrences;
};

ReferencePairCounts reference_pair_counts(
    const trace::Trace& trace, const volume::PairCounterConfig& config,
    std::uint64_t min_count) {
  std::map<util::InternId, std::uint64_t> popularity;
  std::map<util::InternId, std::vector<trace::Request>> by_source;
  for (const auto& request : trace.requests()) {
    ++popularity[request.path];
    by_source[request.source].push_back(request);
  }
  const auto qualifies = [&](util::InternId path) {
    return popularity.at(path) >= min_count;
  };
  const auto prefix = [&](util::InternId path) {
    return util::directory_prefix(trace.paths().str(path),
                                  config.restrict_prefix_level);
  };

  util::Rng rng(config.seed);
  ReferencePairCounts out;
  for (const auto& [source, requests] : by_source) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto r = requests[i].path;
      if (!qualifies(r)) continue;
      const auto cr = ++out.occurrences[r];
      std::vector<util::InternId> successors;  // distinct, first seen first
      for (std::size_t j = i + 1; j < requests.size(); ++j) {
        const auto s = requests[j].path;
        if (requests[j].time - requests[i].time <= config.window &&
            qualifies(s) &&
            std::find(successors.begin(), successors.end(), s) ==
                successors.end()) {
          successors.push_back(s);
        }
      }
      for (const auto s : successors) {
        if (config.restrict_prefix_level > 0 && prefix(r) != prefix(s)) {
          continue;
        }
        const auto key = volume::PairCounts::key(r, s);
        auto it = out.pairs.find(key);
        if (it == out.pairs.end()) {
          if (config.sample_counters &&
              !rng.chance(std::min(
                  1.0, config.sample_k / (config.sample_threshold *
                                          static_cast<double>(cr))))) {
            continue;
          }
          it = out.pairs.emplace(key, volume::PairCount{0, cr - 1}).first;
        }
        ++it->second.count;
      }
    }
  }
  return out;
}

void expect_matches_reference(const volume::PairCounts& counts,
                              const ReferencePairCounts& reference,
                              std::size_t path_count) {
  ASSERT_EQ(counts.counter_count(), reference.pairs.size());
  for (const auto& [key, pc] : reference.pairs) {
    const auto it = counts.pairs().find(key);
    ASSERT_NE(it, counts.pairs().end()) << "key " << key;
    EXPECT_EQ(it->second.count, pc.count) << "key " << key;
    EXPECT_EQ(it->second.cr_at_creation, pc.cr_at_creation)
        << "key " << key;
  }
  ASSERT_EQ(counts.resource_occurrences().size(), path_count);
  for (util::InternId r = 0; r < path_count; ++r) {
    const auto it = reference.occurrences.find(r);
    EXPECT_EQ(counts.occurrences(r),
              it == reference.occurrences.end() ? 0 : it->second)
        << "r " << r;
  }
}

// 32 hot paths over four directories, plus 64 rare ones that get one
// request in 16 (about six hits each per 6,000 requests): rare paths
// straddle the min-count cut, and their pairs reach the sampler late,
// when the creation probability has dropped below 1.
trace::Trace random_single_server_trace(std::uint64_t seed,
                                        std::size_t requests) {
  std::vector<std::string> pool;
  for (const char* dir : {"", "/a", "/a/x", "/b"}) {
    for (int i = 0; i < 8; ++i) {
      pool.push_back(std::string(dir) + "/r" + std::to_string(i) + ".html");
    }
  }
  for (int i = 0; i < 64; ++i) {
    pool.push_back(std::string("/rare/r").append(std::to_string(i)) + ".html");
  }
  util::Rng rng(seed);
  trace::Trace trace;
  util::Seconds now = 1'000'000;
  for (std::size_t i = 0; i < requests; ++i) {
    now += static_cast<util::Seconds>(rng.below(3));  // duplicates allowed
    const auto source = "10.0.0." + std::to_string(rng.below(6));
    const auto path = rng.below(16) == 0 ? 32 + rng.below(64) : rng.below(32);
    trace.add({now}, source, "origin", pool[path]);
  }
  return trace;  // built time-sorted
}

// Builds every prefix-level x min-count combination with the production
// builder and the naive model and requires identical counter tables.
void expect_builder_matches_model(const trace::Trace& trace, bool sampled) {
  for (const int prefix_level : {0, 1}) {
    volume::PairCounterConfig config;
    config.window = 120;
    config.sample_counters = sampled;
    config.restrict_prefix_level = prefix_level;
    for (const std::uint64_t min_count : {1u, 5u}) {
      SCOPED_TRACE(::testing::Message() << "prefix level " << prefix_level
                                        << ", min count " << min_count);
      expect_matches_reference(
          volume::PairCounterBuilder(config).build(trace, min_count),
          reference_pair_counts(trace, config, min_count),
          trace.paths().size());
    }
  }
}

class PairCounterDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairCounterDifferential, MatchesNaiveModelExactly) {
  expect_builder_matches_model(random_single_server_trace(GetParam(), 6'000),
                               /*sampled=*/false);
}

TEST_P(PairCounterDifferential, SampledMatchesNaiveModel) {
  // The sampler consumes one RNG stream, so this also pins the builder's
  // visit order: ascending source, feed order, first-seen successors.
  expect_builder_matches_model(
      random_single_server_trace(GetParam() ^ 0xABCD, 3'000),
      /*sampled=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairCounterDifferential,
                         ::testing::Values(7, 1234, 987654321));

// --- Metric accumulator vs a model that never forgets ------------------------

// Naive model of §3.1's per-source accounting (MetricAccumulator): std::map
// tables that keep every entry forever, each rule stated once.
//   * A request is predicted when a piggyback mentioned it within T; it
//     has a previous occurrence within C and within T; it is updated by
//     piggyback when predicted with a previous occurrence within C but not
//     within T.
//   * A mention opens a prediction interval unless one opened within T;
//     the interval's first request within T makes it true.
//   * Frequency control suppresses a message when the source's last
//     message from that server came less than min_interval ago; RPV drops
//     a message whose volume is on the (source, server) list, which keeps
//     the volumes noted within the timeout, newest last, at most
//     max_entries. RPV is consulted only when frequency control lets the
//     message through.
// image_at(now) is what a later request can still read: each timestamp
// past every window that reads it is dropped, and an entry with nothing
// left is left out.
class ReferenceAccumulator {
 public:
  explicit ReferenceAccumulator(const sim::EvalConfig& config)
      : config_(config) {}

  void observe(const trace::Request& req, core::VolumeId volume,
               const std::vector<util::InternId>& resources) {
    const auto T = config_.prediction_window;
    const auto C = config_.cache_horizon;
    const auto t = req.time.value;
    ++result_.requests;
    auto& rs = state_[{req.source, req.path}];
    const bool predicted = within(rs.last_mention, t, T);
    const bool prev_c = within(rs.last_access, t, C);
    const bool prev_t = within(rs.last_access, t, T);
    if (predicted) ++result_.predicted_requests;
    if (prev_c) ++result_.prev_occurrence_within_horizon;
    if (prev_t) ++result_.prev_occurrence_within_window;
    if (predicted && prev_c && !prev_t) ++result_.updated_by_piggyback;
    if (!rs.fulfilled && within(rs.interval_open, t, T)) {
      ++result_.predictions_true;
      rs.fulfilled = true;
    }
    rs.last_access = t;

    const std::pair<util::InternId, util::InternId> pair{req.source,
                                                         req.server};
    const auto piggy = last_piggy_.find(pair);
    const bool enabled =
        config_.filter.enabled &&
        !(config_.min_piggyback_interval > 0 && piggy != last_piggy_.end() &&
          t - piggy->second < config_.min_piggyback_interval);
    bool suppressed = volume == core::kNoVolume || resources.empty();
    std::vector<core::RpvEntry>* list = nullptr;
    if (config_.use_rpv && enabled) {
      list = &rpv_[pair];
      expire(*list, t);
      for (const auto& entry : *list) {
        if (entry.volume == volume) suppressed = true;
      }
    }
    if (!enabled || suppressed) return;

    ++result_.piggyback_messages;
    result_.piggyback_elements += resources.size();
    last_piggy_[pair] = t;
    if (list != nullptr) {
      std::erase_if(*list, [volume](const core::RpvEntry& entry) {
        return entry.volume == volume;
      });
      list->push_back({volume, req.time});
      while (list->size() > config_.rpv.max_entries) list->erase(list->begin());
    }
    for (const auto resource : resources) {
      auto& es = state_[{req.source, resource}];
      es.last_mention = t;
      if (!within(es.interval_open, t, T)) {
        es.interval_open = t;
        es.fulfilled = false;
        ++result_.predictions_made;
      }
    }
  }

  const sim::EvalResult& result() const { return result_; }

  sim::detail::EvalStateImage image_at(util::Seconds now) const {
    const auto T = config_.prediction_window;
    const auto C = config_.cache_horizon;
    const auto key = [](const std::pair<util::InternId, util::InternId>& p) {
      return sim::detail::pair_key(p.first, p.second);
    };
    sim::detail::EvalStateImage image;
    image.counters = result_;
    for (const auto& [pair, full] : state_) {
      sim::detail::ResourceState rs;
      if (within(full.last_access, now, C) ||
          within(full.last_access, now, T)) {
        rs.last_access = full.last_access;
      }
      if (within(full.last_mention, now, T)) {
        rs.last_mention = full.last_mention;
      }
      if (within(full.interval_open, now, T)) {
        rs.interval_open = full.interval_open;
        rs.fulfilled = full.fulfilled;
      }
      if (rs != sim::detail::ResourceState{}) {
        image.resource_state.emplace_back(key(pair), rs);
      }
    }
    for (const auto& [pair, last] : last_piggy_) {
      if (now - last < config_.min_piggyback_interval) {
        image.last_piggy.emplace_back(key(pair), last);
      }
    }
    for (const auto& [pair, list] : rpv_) {
      const bool live = std::any_of(
          list.begin(), list.end(), [&](const core::RpvEntry& entry) {
            return now - entry.when.value <= config_.rpv.timeout;
          });
      if (live) image.rpv.emplace_back(key(pair), list);
    }
    return image;
  }

 private:
  static bool within(util::Seconds when, util::Seconds now,
                     util::Seconds window) {
    return when != sim::detail::kNever && now - when <= window;
  }

  void expire(std::vector<core::RpvEntry>& list, util::Seconds now) const {
    std::erase_if(list, [&](const core::RpvEntry& entry) {
      return now - entry.when.value > config_.rpv.timeout;
    });
  }

  sim::EvalConfig config_;
  sim::EvalResult result_;
  std::map<std::pair<util::InternId, util::InternId>,
           sim::detail::ResourceState>
      state_;
  std::map<std::pair<util::InternId, util::InternId>, util::Seconds>
      last_piggy_;
  std::map<std::pair<util::InternId, util::InternId>,
           std::vector<core::RpvEntry>>
      rpv_;
};

void expect_same_counters(const sim::EvalResult& a, const sim::EvalResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.predicted_requests, b.predicted_requests);
  EXPECT_EQ(a.piggyback_messages, b.piggyback_messages);
  EXPECT_EQ(a.piggyback_elements, b.piggyback_elements);
  EXPECT_EQ(a.predictions_made, b.predictions_made);
  EXPECT_EQ(a.predictions_true, b.predictions_true);
  EXPECT_EQ(a.prev_occurrence_within_horizon,
            b.prev_occurrence_within_horizon);
  EXPECT_EQ(a.prev_occurrence_within_window, b.prev_occurrence_within_window);
  EXPECT_EQ(a.updated_by_piggyback, b.updated_by_piggyback);
}

template <typename Pairs>
Pairs sorted_by_key(Pairs pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return pairs;
}

// Random requests over few sources, servers and paths, most in the same
// second as the one before and the rest after a gap of exactly T, T + 1,
// C or C + 1 (or a random one), fed to MetricAccumulator and the model.
// The accumulator sweeps once per C; every result and every capture must
// match the model that never forgets. Some captures also restart the
// accumulator from its own image, as a resume does.
void expect_accumulator_matches_model(std::uint64_t seed,
                                      const sim::EvalConfig& config,
                                      std::size_t requests) {
  util::Rng rng(seed);
  const auto T = config.prediction_window;
  const auto C = config.cache_horizon;
  const util::Seconds gaps[] = {1, T, T + 1, C, C + 1};
  std::optional<sim::detail::MetricAccumulator> acc(std::in_place, config);
  ReferenceAccumulator model(config);
  util::Seconds now = 1000;
  std::vector<util::InternId> resources;
  for (std::size_t i = 0; i < requests; ++i) {
    if (!rng.chance(0.55)) {
      now += rng.chance(0.9) ? gaps[rng.below(std::size(gaps))]
                             : rng.between(2, 2 * C);
    }
    trace::Request req;
    req.time = util::TimePoint{now};
    req.source = static_cast<util::InternId>(rng.below(3));
    req.server = static_cast<util::InternId>(rng.below(2));
    req.path = static_cast<util::InternId>(rng.below(8));
    const auto volume = rng.chance(0.15)
                            ? core::kNoVolume
                            : static_cast<core::VolumeId>(rng.below(4));
    resources.clear();
    for (util::InternId r = 0; r < 8; ++r) {
      if (rng.chance(0.2)) resources.push_back(r);
    }
    acc->observe(req, volume, resources);
    model.observe(req, volume, resources);

    if (rng.chance(0.03) || i + 1 == requests) {
      SCOPED_TRACE(::testing::Message() << "request " << i << " at " << now);
      expect_same_counters(acc->result(), model.result());
      ASSERT_EQ(acc->latest_time(), now);
      sim::detail::EvalStateImage image;
      acc->export_state(image, now);
      const auto expected = model.image_at(now);
      ASSERT_EQ(sorted_by_key(image.resource_state), expected.resource_state);
      ASSERT_EQ(sorted_by_key(image.last_piggy), expected.last_piggy);
      ASSERT_EQ(sorted_by_key(image.rpv), expected.rpv);
      if (rng.chance(0.3)) {
        acc.emplace(config);
        acc->import_state(
            image, [](util::InternId) { return true; },
            /*take_counters=*/true);
        ASSERT_EQ(acc->latest_time(), now);
      }
    }
  }
}

class AccumulatorDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccumulatorDifferential, SweepIsExactAtTheWindowEdges) {
  for (const auto& [T, C] :
       {std::pair<util::Seconds, util::Seconds>{3, 10}, {10, 3}}) {
    for (const util::Seconds timeout : {C - 2, C, C + 5}) {
      for (const util::Seconds min_interval :
           {util::Seconds{0}, util::Seconds{2}, C, C + 4}) {
        for (const bool use_rpv : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "T " << T << " C " << C << " rpv timeout "
                       << timeout << " min interval " << min_interval
                       << (use_rpv ? " rpv" : ""));
          sim::EvalConfig config;
          config.prediction_window = T;
          config.cache_horizon = C;
          config.use_rpv = use_rpv;
          config.rpv.timeout = timeout;
          config.rpv.max_entries = 2;
          config.min_piggyback_interval = min_interval;
          const auto seed = GetParam() ^
                            (static_cast<std::uint64_t>(timeout) << 8) ^
                            (static_cast<std::uint64_t>(min_interval) << 16);
          expect_accumulator_matches_model(seed, config, 1500);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccumulatorDifferential,
                         ::testing::Values(3, 4242, 0xACC0ULL));

}  // namespace
}  // namespace piggyweb
