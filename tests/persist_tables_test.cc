// Property tests for the table serializers: every durable table round
// trips exactly (restore compares equal to the original), restoring and
// re-serializing reproduces the canonical bytes bit-for-bit, and
// malformed payloads are rejected with an error instead of crashing or
// tripping a contract.
#include "persist/tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "persist/state_access.h"
#include "proxy/cache.h"
#include "util/rng.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"

namespace piggyweb::persist {
namespace {

// u64 vectors ---------------------------------------------------------------

TEST(U64Vector, RoundTrip) {
  const std::vector<std::uint64_t> values = {0, 1, 0xffffffffffffffffULL, 42};
  ByteWriter out;
  serialize_u64_vector(values, out);
  ByteReader in(out.bytes());
  std::vector<std::uint64_t> back;
  std::string error;
  ASSERT_TRUE(deserialize_u64_vector(in, back, error)) << error;
  EXPECT_EQ(back, values);
  EXPECT_TRUE(in.ok() && in.at_end());
}

TEST(U64Vector, OversizedCountIsRejected) {
  ByteWriter out;
  out.u64(1ULL << 60);  // count far beyond the payload
  ByteReader in(out.bytes());
  std::vector<std::uint64_t> back;
  std::string error;
  EXPECT_FALSE(deserialize_u64_vector(in, back, error));
  EXPECT_FALSE(error.empty());
}

// Intern tables -------------------------------------------------------------

TEST(InternTableCodec, ReloadReproducesIdAssignment) {
  util::InternTable table;
  const std::vector<std::string> strings = {"/a/b.html", "", "img.gif",
                                            std::string("nul\0inside", 10),
                                            "/a/b.html/very/deep/path"};
  std::vector<util::InternId> ids;
  for (const auto& s : strings) ids.push_back(table.intern(s));

  ByteWriter out;
  serialize_intern_table(table, out);
  const auto bytes = out.take();

  util::InternTable back;
  ByteReader in(bytes);
  std::string error;
  ASSERT_TRUE(deserialize_intern_table(in, back, error)) << error;
  ASSERT_EQ(back.size(), table.size());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(back.str(ids[i]), strings[i]);
    EXPECT_EQ(back.find(strings[i]), ids[i]);
  }

  // Canonical bytes: re-serializing the restored table is an identity.
  ByteWriter again;
  serialize_intern_table(back, again);
  EXPECT_EQ(again.bytes(), bytes);
}

// FlatMap -------------------------------------------------------------------

void write_u64_value(ByteWriter& out, std::uint64_t value) { out.u64(value); }
bool read_u64_value(ByteReader& in, std::uint64_t& value, std::string&) {
  value = in.u64();
  return true;
}

TEST(FlatMapCodec, RoundTripUnderChurn) {
  // Heavy insert/erase churn exercises backward-shift deletion and
  // rehashing, so the two maps' probe layouts differ wildly; content
  // equality and canonical bytes must not care.
  util::Rng rng(0xf1a7);
  util::FlatMap<std::uint32_t, std::uint64_t> map;
  for (int round = 0; round < 5000; ++round) {
    const auto key = static_cast<std::uint32_t>(rng.below(700));
    if (rng.below(3) == 0) {
      map.erase(key);
    } else {
      map[key] = rng.below(1 << 30);
    }
  }
  ASSERT_GT(map.size(), 0u);

  ByteWriter out;
  serialize_flat_map(map, out, write_u64_value);
  const auto bytes = out.take();

  util::FlatMap<std::uint32_t, std::uint64_t> back;
  back[999999] = 1;  // deserialize must clear pre-existing contents
  ByteReader in(bytes);
  std::string error;
  ASSERT_TRUE(deserialize_flat_map(in, back, read_u64_value, error)) << error;
  EXPECT_TRUE(map == back);
  EXPECT_TRUE(in.ok() && in.at_end());

  ByteWriter again;
  serialize_flat_map(back, again, write_u64_value);
  EXPECT_EQ(again.bytes(), bytes);
}

TEST(FlatMapCodec, DuplicateKeyIsRejected) {
  ByteWriter out;
  out.u64(2);
  out.u64(7);
  out.u64(100);
  out.u64(7);  // duplicate key
  out.u64(200);
  ByteReader in(out.bytes());
  util::FlatMap<std::uint32_t, std::uint64_t> map;
  std::string error;
  EXPECT_FALSE(deserialize_flat_map(in, map, read_u64_value, error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(FlatMapCodec, KeyOutOfRangeIsRejected) {
  ByteWriter out;
  out.u64(1);
  out.u64(1ULL << 40);  // does not fit in a u32 key
  out.u64(5);
  ByteReader in(out.bytes());
  util::FlatMap<std::uint32_t, std::uint64_t> map;
  std::string error;
  EXPECT_FALSE(deserialize_flat_map(in, map, read_u64_value, error));
  EXPECT_NE(error.find("range"), std::string::npos) << error;
}

TEST(FlatMapCodec, OversizedCountIsRejected) {
  ByteWriter out;
  out.u64(1ULL << 61);
  ByteReader in(out.bytes());
  util::FlatMap<std::uint32_t, std::uint64_t> map;
  std::string error;
  EXPECT_FALSE(deserialize_flat_map(in, map, read_u64_value, error));
  EXPECT_NE(error.find("overruns"), std::string::npos) << error;
}

// RPV lists -----------------------------------------------------------------

TEST(RpvCodec, ListRoundTripPreservesFifoOrder) {
  core::RpvConfig config;
  config.timeout = 60;
  config.max_entries = 8;
  core::RpvList list(config);
  list.note(3, util::TimePoint{100});
  list.note(7, util::TimePoint{110});
  list.note(3, util::TimePoint{120});  // refresh moves 3 behind 7

  ByteWriter out;
  serialize_rpv_list(list, out);
  const auto bytes = out.take();

  ByteReader in(bytes);
  std::vector<core::RpvEntry> entries;
  std::string error;
  ASSERT_TRUE(deserialize_rpv_entries(in, entries, error)) << error;
  core::RpvList restored(config);
  restored.restore_entries(entries);
  EXPECT_EQ(restored.entries(), list.entries());
  EXPECT_EQ(restored.live(util::TimePoint{125}),
            (std::vector<core::VolumeId>{7, 3}));

  ByteWriter again;
  serialize_rpv_list(restored, again);
  EXPECT_EQ(again.bytes(), bytes);
}

TEST(RpvCodec, TruncatedEntriesAreRejected) {
  ByteWriter out;
  out.u64(5);  // promises 5 entries, delivers none
  ByteReader in(out.bytes());
  std::vector<core::RpvEntry> entries;
  std::string error;
  EXPECT_FALSE(deserialize_rpv_entries(in, entries, error));
  EXPECT_FALSE(error.empty());
}

// Pair counters -------------------------------------------------------------

TEST(PairCounterCodec, PairCountsRoundTrip) {
  // Sessions 1000 s apart (beyond the 300 s window) from one client, so
  // pairs form only within a session. Paths intern as ids 0..3 in order.
  struct Session {
    int repeat;
    std::vector<int> paths;
  };
  const Session sessions[] = {
      {1, {0}}, {2, {1, 2, 3}}, {3, {1, 2}}, {7, {2, 3}}, {5, {1}}};
  trace::Trace trace;
  util::Seconds now = 0;
  for (const auto& session : sessions) {
    for (int i = 0; i < session.repeat; ++i, now += 1000) {
      for (const int path : session.paths) {
        trace.add({now + path}, "client", "server",
                  std::string("/p").append(std::to_string(path)));
      }
    }
  }
  const volume::PairCounts counts =
      volume::PairCounterBuilder(volume::PairCounterConfig{}).build(trace);

  ByteWriter out;
  StateAccess::serialize_pair_counts(counts, out);
  const auto bytes = out.take();

  volume::PairCounts back;
  ByteReader in(bytes);
  std::string error;
  ASSERT_TRUE(StateAccess::deserialize_pair_counts(in, back, error)) << error;
  EXPECT_EQ(back.counter_count(), counts.counter_count());
  EXPECT_EQ(back.pair_count(1, 2), 5u);
  EXPECT_EQ(back.pair_count(2, 3), 9u);
  EXPECT_EQ(back.occurrences(2), 12u);
  EXPECT_DOUBLE_EQ(back.probability(1, 2), counts.probability(1, 2));

  ByteWriter again;
  StateAccess::serialize_pair_counts(back, again);
  EXPECT_EQ(again.bytes(), bytes);
}

// Probability volume sets ---------------------------------------------------

TEST(ProbabilityVolumeCodec, RoundTripPreservesIds) {
  volume::ProbabilityVolumeSet set;
  set.add_volume(5, {{7, 0.5, 0.4}, {9, 0.25, 0.0}});
  set.add_volume(2, {{5, 0.9, 0.9}});
  set.add_volume(9, {{2, 0.1, 0.05}, {5, 0.3, 0.2}, {7, 0.2, 0.1}});

  ByteWriter out;
  serialize_probability_volume_set(set, out);
  const auto bytes = out.take();

  volume::ProbabilityVolumeSet back;
  ByteReader in(bytes);
  std::string error;
  ASSERT_TRUE(deserialize_probability_volume_set(in, back, error)) << error;
  ASSERT_EQ(back.volume_count(), set.volume_count());
  for (const util::InternId r : {5u, 2u, 9u}) {
    EXPECT_EQ(back.volume_id(r), set.volume_id(r)) << "resource " << r;
    const auto* mine = set.volume_of(r);
    const auto* theirs = back.volume_of(r);
    ASSERT_NE(theirs, nullptr);
    ASSERT_EQ(theirs->size(), mine->size());
    for (std::size_t i = 0; i < mine->size(); ++i) {
      EXPECT_EQ((*theirs)[i].resource, (*mine)[i].resource);
      EXPECT_DOUBLE_EQ((*theirs)[i].probability, (*mine)[i].probability);
      EXPECT_DOUBLE_EQ((*theirs)[i].effectiveness, (*mine)[i].effectiveness);
    }
  }
  EXPECT_EQ(back.volume_id(1234), core::kNoVolume);

  ByteWriter again;
  serialize_probability_volume_set(back, again);
  EXPECT_EQ(again.bytes(), bytes);
}

// Directory volume images ---------------------------------------------------

std::vector<DirectoryVolumeImage> sample_images() {
  std::vector<DirectoryVolumeImage> images(2);
  images[0].server = 1;
  images[0].prefix = "/a";
  images[0].saved_id = 0;
  images[0].parts[0] = {{10, util::TimePoint{5}}, {11, util::TimePoint{3}}};
  images[0].parts[4] = {{12, util::TimePoint{9}}};
  images[1].server = 2;
  images[1].prefix = "";
  images[1].saved_id = 1;
  images[1].parts[5] = {{20, util::TimePoint{1}}};
  return images;
}

TEST(DirectoryImageCodec, RoundTrip) {
  const auto images = sample_images();
  ByteWriter out;
  serialize_directory_volume_images(images, out);
  const auto bytes = out.take();

  ByteReader in(bytes);
  std::vector<DirectoryVolumeImage> back;
  std::string error;
  ASSERT_TRUE(deserialize_directory_volume_images(in, back, error)) << error;
  EXPECT_TRUE(in.ok() && in.at_end());
  EXPECT_EQ(back, images);

  ByteWriter again;
  serialize_directory_volume_images(back, again);
  EXPECT_EQ(again.bytes(), bytes);
}

TEST(DirectoryImageCodec, OversizedElementCountIsRejected) {
  ByteWriter out;
  out.u64(1);           // one volume
  out.u32(1);           // server
  out.str("/a");        // prefix
  out.u32(0);           // saved id
  out.u64(1ULL << 62);  // elements in partition 0: absurd
  ByteReader in(out.bytes());
  std::vector<DirectoryVolumeImage> back;
  std::string error;
  EXPECT_FALSE(deserialize_directory_volume_images(in, back, error));
  EXPECT_FALSE(error.empty());
}

// DirectoryVolumes export/import -------------------------------------------

core::VolumeRequest make_request(util::InternId server, util::InternId path,
                                 std::int64_t time, std::uint64_t size,
                                 trace::ContentType type) {
  core::VolumeRequest request;
  request.server = server;
  request.source = 1;
  request.path = path;
  request.time = util::TimePoint{time};
  request.size = size;
  request.type = type;
  return request;
}

TEST(DirectoryVolumesCodec, ExportImportPreservesStructure) {
  util::InternTable paths;
  const auto a = paths.intern("/a/x.html");
  const auto b = paths.intern("/a/y.gif");
  const auto c = paths.intern("/b/z.html");

  volume::DirectoryVolumeConfig config;
  config.level = 1;
  volume::DirectoryVolumes original(config);
  original.bind_paths(paths);
  original.on_request(
      make_request(1, a, 10, 100, trace::ContentType::kHtml));
  original.on_request(
      make_request(1, b, 20, 64 * 1024, trace::ContentType::kImage));
  original.on_request(
      make_request(1, c, 30, 100, trace::ContentType::kHtml));
  original.on_request(
      make_request(2, a, 40, 100, trace::ContentType::kHtml));
  // Touch /a/x.html again so move-to-front ordering is part of the image.
  original.on_request(
      make_request(1, a, 50, 100, trace::ContentType::kHtml));

  const auto images = StateAccess::export_directory_volumes(original);
  ASSERT_EQ(images.size(), original.volume_count());

  volume::DirectoryVolumes restored(config);
  restored.bind_paths(paths);
  std::vector<const DirectoryVolumeImage*> pointers;
  for (const auto& image : images) pointers.push_back(&image);
  std::vector<core::VolumeId> assigned;
  std::string error;
  ASSERT_TRUE(StateAccess::import_directory_volumes(restored, pointers,
                                                    assigned, error))
      << error;
  ASSERT_EQ(assigned.size(), images.size());
  EXPECT_EQ(restored.volume_count(), original.volume_count());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(restored.volume_size(assigned[i]),
              original.volume_size(images[i].saved_id));
  }
  // The re-export must reproduce the same structural images (ids may be
  // renumbered, so compare everything except saved_id).
  auto re = StateAccess::export_directory_volumes(restored);
  ASSERT_EQ(re.size(), images.size());
  std::sort(re.begin(), re.end(), [](const auto& x, const auto& y) {
    return std::tie(x.server, x.prefix) < std::tie(y.server, y.prefix);
  });
  auto expected = images;
  std::sort(expected.begin(), expected.end(),
            [](const auto& x, const auto& y) {
              return std::tie(x.server, x.prefix) < std::tie(y.server, y.prefix);
            });
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_EQ(re[i].server, expected[i].server);
    EXPECT_EQ(re[i].prefix, expected[i].prefix);
    EXPECT_EQ(re[i].parts, expected[i].parts);
  }
}

TEST(DirectoryVolumesCodec, DuplicateVolumeIdentityIsRejected) {
  const auto images = sample_images();
  volume::DirectoryVolumeConfig config;
  volume::DirectoryVolumes provider(config);
  std::vector<const DirectoryVolumeImage*> pointers = {&images[0], &images[0]};
  std::vector<core::VolumeId> assigned;
  std::string error;
  EXPECT_FALSE(StateAccess::import_directory_volumes(provider, pointers,
                                                     assigned, error));
  EXPECT_FALSE(error.empty());
}

// Proxy cache ---------------------------------------------------------------

// Drive `cache` through a deterministic mixed workload: inserts, hits,
// revalidations, piggyback refresh/invalidate, overrides, and enough
// volume to force evictions.
void churn_cache(proxy::ProxyCache& cache, util::Rng& rng, int operations) {
  for (int i = 0; i < operations; ++i) {
    const util::TimePoint now{static_cast<std::int64_t>(i) * 10};
    const proxy::CacheKey key{static_cast<util::InternId>(1 + rng.below(3)),
                              static_cast<util::InternId>(rng.below(60))};
    switch (rng.below(6)) {
      case 0:
      case 1:
        if (cache.lookup(key, now) == proxy::LookupOutcome::kMiss) {
          cache.insert(key, 50 + rng.below(400), /*last_modified=*/i, now);
        }
        break;
      case 2:
        cache.revalidate(key, now);
        break;
      case 3:
        cache.apply_piggyback(key, /*last_modified=*/i - 5, now);
        break;
      case 4:
        cache.set_freshness_override(
            key, static_cast<util::Seconds>(30 + rng.below(100)));
        break;
      case 5:
        cache.set_hint(key, static_cast<double>(rng.below(100)) / 100.0);
        break;
    }
  }
}

class ProxyCacheCodec
    : public ::testing::TestWithParam<proxy::ReplacementPolicy> {};

TEST_P(ProxyCacheCodec, ExactRestoreAndBehaviouralEquivalence) {
  proxy::CacheConfig config;
  config.capacity_bytes = 4000;  // small: plenty of evictions
  config.freshness_interval = 120;
  config.policy = GetParam();

  proxy::ProxyCache cache(config);
  util::Rng rng(0xcac4e + static_cast<std::uint64_t>(GetParam()));
  churn_cache(cache, rng, 3000);
  ASSERT_GT(cache.entry_count(), 0u);
  ASSERT_GT(cache.stats().evictions, 0u);

  ByteWriter out;
  StateAccess::serialize_proxy_cache(cache, out);
  const auto bytes = out.take();

  proxy::ProxyCache restored(config);
  ByteReader in(bytes);
  std::string error;
  ASSERT_TRUE(StateAccess::deserialize_proxy_cache(in, restored, error))
      << error;
  EXPECT_TRUE(in.ok() && in.at_end());
  EXPECT_EQ(restored.entry_count(), cache.entry_count());
  EXPECT_EQ(restored.used_bytes(), cache.used_bytes());
  EXPECT_EQ(restored.stats().lookups, cache.stats().lookups);
  EXPECT_EQ(restored.stats().evictions, cache.stats().evictions);

  // Canonical bytes: the restored cache re-serializes identically.
  ByteWriter again;
  StateAccess::serialize_proxy_cache(restored, again);
  EXPECT_EQ(again.bytes(), bytes);

  // Behavioural equivalence: continue both caches with the same workload
  // (same rng stream) and require identical victims and stats throughout.
  util::Rng continue_a(0x5eed + static_cast<std::uint64_t>(GetParam()));
  util::Rng continue_b = continue_a;
  churn_cache(cache, continue_a, 2000);
  churn_cache(restored, continue_b, 2000);
  EXPECT_EQ(restored.entry_count(), cache.entry_count());
  EXPECT_EQ(restored.used_bytes(), cache.used_bytes());
  EXPECT_EQ(restored.stats().fresh_hits, cache.stats().fresh_hits);
  EXPECT_EQ(restored.stats().stale_hits, cache.stats().stale_hits);
  EXPECT_EQ(restored.stats().misses, cache.stats().misses);
  EXPECT_EQ(restored.stats().evictions, cache.stats().evictions);
  EXPECT_EQ(restored.stats().piggyback_refreshes,
            cache.stats().piggyback_refreshes);
  EXPECT_EQ(restored.stats().piggyback_invalidations,
            cache.stats().piggyback_invalidations);

  // And the continued pair still serializes identically.
  ByteWriter final_a;
  ByteWriter final_b;
  StateAccess::serialize_proxy_cache(cache, final_a);
  StateAccess::serialize_proxy_cache(restored, final_b);
  EXPECT_EQ(final_a.bytes(), final_b.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ProxyCacheCodec,
    ::testing::Values(proxy::ReplacementPolicy::kLru,
                      proxy::ReplacementPolicy::kSize,
                      proxy::ReplacementPolicy::kGdSize,
                      proxy::ReplacementPolicy::kLruPiggyback,
                      proxy::ReplacementPolicy::kGdSizeHint),
    [](const auto& param_info) {
      std::string name = proxy::policy_name(param_info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ProxyCacheCodec, ConfigMismatchIsRejected) {
  proxy::CacheConfig config;
  config.capacity_bytes = 4000;
  proxy::ProxyCache cache(config);
  cache.insert({1, 2}, 100, 0, util::TimePoint{1});
  ByteWriter out;
  StateAccess::serialize_proxy_cache(cache, out);

  proxy::CacheConfig other = config;
  other.capacity_bytes = 8000;
  proxy::ProxyCache target(other);
  ByteReader in(out.bytes());
  std::string error;
  EXPECT_FALSE(StateAccess::deserialize_proxy_cache(in, target, error));
  EXPECT_FALSE(error.empty());
}

TEST(ProxyCacheCodec, TruncatedPayloadIsRejected) {
  proxy::CacheConfig config;
  proxy::ProxyCache cache(config);
  cache.insert({1, 2}, 100, 0, util::TimePoint{1});
  cache.insert({1, 3}, 200, 0, util::TimePoint{2});
  ByteWriter out;
  StateAccess::serialize_proxy_cache(cache, out);
  const auto bytes = out.take();
  for (const std::size_t len : {bytes.size() / 4, bytes.size() / 2,
                                bytes.size() - 1}) {
    proxy::ProxyCache target(config);
    ByteReader in(std::string_view(bytes).substr(0, len));
    std::string error;
    EXPECT_FALSE(StateAccess::deserialize_proxy_cache(in, target, error))
        << "accepted truncation to " << len;
  }
}

// RPV tables ----------------------------------------------------------------

TEST(RpvTableCodec, RoundTripPreservesListsAndLruOrder) {
  core::RpvConfig config;
  config.timeout = 300;
  config.max_entries = 4;
  core::RpvTable table(config, /*max_servers=*/8);
  for (int i = 0; i < 40; ++i) {
    const auto server = static_cast<util::InternId>(1 + (i * 7) % 5);
    const auto volume = static_cast<core::VolumeId>(i % 6);
    table.note(server, volume, util::TimePoint{i});
  }
  ASSERT_GT(table.tracked_servers(), 0u);

  ByteWriter out;
  StateAccess::serialize_rpv_table(table, out);
  const auto bytes = out.take();

  core::RpvTable restored(config, 8);
  ByteReader in(bytes);
  std::string error;
  ASSERT_TRUE(StateAccess::deserialize_rpv_table(in, restored, error))
      << error;
  EXPECT_TRUE(in.ok() && in.at_end());
  EXPECT_EQ(restored.tracked_servers(), table.tracked_servers());
  for (util::InternId server = 1; server <= 5; ++server) {
    EXPECT_EQ(restored.live(server, util::TimePoint{40}),
              table.live(server, util::TimePoint{40}))
        << "server " << server;
  }

  ByteWriter again;
  StateAccess::serialize_rpv_table(restored, again);
  EXPECT_EQ(again.bytes(), bytes);
}

TEST(RpvTableCodec, ConfigMismatchIsRejected) {
  core::RpvConfig config;
  config.timeout = 300;
  core::RpvTable table(config, 8);
  table.note(1, 2, util::TimePoint{5});
  ByteWriter out;
  StateAccess::serialize_rpv_table(table, out);

  core::RpvConfig other = config;
  other.timeout = 600;
  core::RpvTable target(other, 8);
  ByteReader in(out.bytes());
  std::string error;
  EXPECT_FALSE(StateAccess::deserialize_rpv_table(in, target, error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace piggyweb::persist
