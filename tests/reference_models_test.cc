// Differential tests: drive the production data structures and naive
// reference implementations with the same randomized operation sequences
// and require identical observable behaviour. Catches whole classes of
// bookkeeping bugs (split FIFO partitions, iterator juggling, eviction
// order) that example-based tests miss.
#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "proxy/cache.h"
#include "util/rng.h"
#include "util/strings.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"

namespace piggyweb {
namespace {

// --- LRU cache reference ----------------------------------------------------

class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t capacity, util::Seconds delta)
      : capacity_(capacity), delta_(delta) {}

  proxy::LookupOutcome lookup(std::uint64_t key, util::Seconds now) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return proxy::LookupOutcome::kMiss;
    touch(key);
    return now < it->second.expires ? proxy::LookupOutcome::kFreshHit
                                    : proxy::LookupOutcome::kStaleHit;
  }

  void insert(std::uint64_t key, std::uint64_t size, util::Seconds now) {
    if (size > capacity_) return;
    if (entries_.count(key)) erase(key);
    while (used_ + size > capacity_ && !order_.empty()) {
      erase(order_.back());
    }
    entries_[key] = {size, now + delta_};
    order_.push_front(key);
    used_ += size;
  }

  bool contains(std::uint64_t key) const { return entries_.count(key) > 0; }
  std::uint64_t used() const { return used_; }

 private:
  struct Entry {
    std::uint64_t size;
    util::Seconds expires;
  };
  void touch(std::uint64_t key) {
    order_.remove(key);
    order_.push_front(key);
  }
  void erase(std::uint64_t key) {
    used_ -= entries_[key].size;
    entries_.erase(key);
    order_.remove(key);
  }

  std::uint64_t capacity_;
  util::Seconds delta_;
  std::map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> order_;
  std::uint64_t used_ = 0;
};

class LruDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruDifferential, MatchesReferenceOverRandomOps) {
  constexpr std::uint64_t kCapacity = 5000;
  constexpr util::Seconds kDelta = 500;
  proxy::CacheConfig config;
  config.capacity_bytes = kCapacity;
  config.freshness_interval = kDelta;
  config.policy = proxy::ReplacementPolicy::kLru;
  proxy::ProxyCache cache(config);
  ReferenceLru reference(kCapacity, kDelta);

  util::Rng rng(GetParam());
  util::Seconds now = 0;
  for (int op = 0; op < 4000; ++op) {
    now += static_cast<util::Seconds>(rng.below(40));
    const auto key = static_cast<util::InternId>(rng.below(60));
    const proxy::CacheKey cache_key{0, key};
    const auto real = cache.lookup(cache_key, {now});
    const auto expected = reference.lookup(key, now);
    ASSERT_EQ(real, expected) << "op " << op << " key " << key;
    if (real == proxy::LookupOutcome::kMiss) {
      const auto size = 50 + rng.below(400);
      cache.insert(cache_key, size, 0, {now});
      reference.insert(key, size, now);
    }
    ASSERT_EQ(cache.used_bytes(), reference.used()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruDifferential,
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

}  // namespace
}  // namespace piggyweb
