#include "volume/pair_counter.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/record.h"
#include "util/rng.h"

namespace piggyweb::volume {
namespace {

// Build a small trace from (time, source, path) triples.
trace::Trace make_trace(
    std::initializer_list<std::tuple<util::Seconds, const char*,
                                     const char*>> events) {
  trace::Trace t;
  for (const auto& [time, source, path] : events) {
    t.add({time}, source, "server", path);
  }
  t.sort_by_time();
  return t;
}

PairCounterConfig exact(util::Seconds window = 300) {
  PairCounterConfig config;
  config.window = window;
  return config;
}

TEST(PairCounter, CountsFollowerWithinWindow) {
  const auto t = make_trace({{0, "c1", "/a"}, {10, "c1", "/b"}});
  const auto counts = PairCounterBuilder(exact()).build(t);
  const auto a = *t.paths().find("/a");
  const auto b = *t.paths().find("/b");
  EXPECT_EQ(counts.pair_count(a, b), 1u);
  EXPECT_EQ(counts.pair_count(b, a), 0u);  // direction matters
  EXPECT_DOUBLE_EQ(counts.probability(a, b), 1.0);
}

TEST(PairCounter, IgnoresFollowerOutsideWindow) {
  const auto t = make_trace({{0, "c1", "/a"}, {301, "c1", "/b"}});
  const auto counts = PairCounterBuilder(exact(300)).build(t);
  EXPECT_EQ(counts.pair_count(*t.paths().find("/a"), *t.paths().find("/b")),
            0u);
}

TEST(PairCounter, WindowBoundaryInclusive) {
  const auto t = make_trace({{0, "c1", "/a"}, {300, "c1", "/b"}});
  const auto counts = PairCounterBuilder(exact(300)).build(t);
  EXPECT_EQ(counts.pair_count(*t.paths().find("/a"), *t.paths().find("/b")),
            1u);
}

TEST(PairCounter, DifferentSourcesDoNotPair) {
  const auto t = make_trace({{0, "c1", "/a"}, {10, "c2", "/b"}});
  const auto counts = PairCounterBuilder(exact()).build(t);
  EXPECT_EQ(counts.counter_count(), 0u);
}

TEST(PairCounter, ProbabilityIsFractionOfROccurrences) {
  // /a occurs 4 times; /b follows twice -> p(b|a) = 0.5.
  const auto t = make_trace({{0, "c1", "/a"},
                             {10, "c1", "/b"},
                             {1000, "c1", "/a"},
                             {1010, "c1", "/b"},
                             {2000, "c1", "/a"},
                             {3000, "c1", "/a"}});
  const auto counts = PairCounterBuilder(exact()).build(t);
  const auto a = *t.paths().find("/a");
  const auto b = *t.paths().find("/b");
  EXPECT_EQ(counts.occurrences(a), 4u);
  EXPECT_DOUBLE_EQ(counts.probability(a, b), 0.5);
}

TEST(PairCounter, DistinctSuccessorsCountedOncePerOccurrence) {
  // /a followed by /b twice within one window: one co-occurrence.
  const auto t = make_trace(
      {{0, "c1", "/a"}, {10, "c1", "/b"}, {20, "c1", "/b"}});
  const auto counts = PairCounterBuilder(exact()).build(t);
  EXPECT_EQ(counts.pair_count(*t.paths().find("/a"), *t.paths().find("/b")),
            1u);
}

TEST(PairCounter, SelfPairsAllowed) {
  // Repeat access within the window: /a implies /a (the paper observed
  // ~1% of resources in their own volumes).
  const auto t = make_trace({{0, "c1", "/a"}, {10, "c1", "/a"}});
  const auto counts = PairCounterBuilder(exact()).build(t);
  const auto a = *t.paths().find("/a");
  EXPECT_EQ(counts.pair_count(a, a), 1u);
}

TEST(PairCounter, PairsFormOnlyWithinSessions) {
  // Sessions 1000 s apart (beyond the 300 s window) from one client, each
  // repeated: {/p0} once, {/p1 /p2 /p3} twice, {/p1 /p2} three times,
  // {/p2 /p3} seven times, {/p1} five times.
  struct Session {
    int repeat;
    std::vector<int> paths;
  };
  const Session sessions[] = {
      {1, {0}}, {2, {1, 2, 3}}, {3, {1, 2}}, {7, {2, 3}}, {5, {1}}};
  trace::Trace t;
  util::Seconds now = 0;
  for (const auto& session : sessions) {
    for (int i = 0; i < session.repeat; ++i, now += 1000) {
      for (const int path : session.paths) {
        t.add({now + path}, "c1", "server",
              std::string("/p").append(std::to_string(path)));
      }
    }
  }
  const auto counts = PairCounterBuilder(exact()).build(t);
  const auto p1 = *t.paths().find("/p1");
  const auto p2 = *t.paths().find("/p2");
  const auto p3 = *t.paths().find("/p3");
  EXPECT_EQ(counts.pair_count(p1, p2), 5u);
  EXPECT_EQ(counts.pair_count(p2, p3), 9u);
  EXPECT_EQ(counts.occurrences(p2), 12u);
  EXPECT_DOUBLE_EQ(counts.probability(p1, p2), 0.5);  // 5 of 10
}

TEST(PairCounter, MinResourceCountDropsUnpopular) {
  const auto t = make_trace({{0, "c1", "/rare"},
                             {10, "c1", "/pop"},
                             {1000, "c2", "/pop"},
                             {2000, "c3", "/pop"}});
  const auto counts = PairCounterBuilder(exact()).build(t, 3);
  EXPECT_EQ(counts.occurrences(*t.paths().find("/rare")), 0u);
  EXPECT_EQ(counts.occurrences(*t.paths().find("/pop")), 3u);
  EXPECT_EQ(counts.counter_count(), 0u);  // the pair involved /rare
}

TEST(PairCounter, PrefixRestrictionDropsCrossDirectoryPairs) {
  auto config = exact();
  config.restrict_prefix_level = 1;
  const auto t = make_trace(
      {{0, "c1", "/a/x.html"}, {5, "c1", "/a/y.html"}, {10, "c1", "/b/z.html"}});
  const auto counts = PairCounterBuilder(config).build(t);
  const auto ax = *t.paths().find("/a/x.html");
  const auto ay = *t.paths().find("/a/y.html");
  const auto bz = *t.paths().find("/b/z.html");
  EXPECT_EQ(counts.pair_count(ax, ay), 1u);
  EXPECT_EQ(counts.pair_count(ax, bz), 0u);
  EXPECT_EQ(counts.pair_count(ay, bz), 0u);
}

TEST(PairCounter, InterleavedSourcesStaySeparate) {
  const auto t = make_trace({{0, "c1", "/a"},
                             {1, "c2", "/x"},
                             {2, "c1", "/b"},
                             {3, "c2", "/y"}});
  const auto counts = PairCounterBuilder(exact()).build(t);
  const auto a = *t.paths().find("/a");
  const auto b = *t.paths().find("/b");
  const auto x = *t.paths().find("/x");
  const auto y = *t.paths().find("/y");
  EXPECT_EQ(counts.pair_count(a, b), 1u);
  EXPECT_EQ(counts.pair_count(x, y), 1u);
  EXPECT_EQ(counts.pair_count(a, x), 0u);
  EXPECT_EQ(counts.pair_count(a, y), 0u);
}

TEST(PairCounter, AllProbabilitiesMatchesCounters) {
  const auto t = make_trace({{0, "c1", "/a"},
                             {10, "c1", "/b"},
                             {20, "c1", "/c"}});
  const auto counts = PairCounterBuilder(exact()).build(t);
  // Pairs: a->b, a->c, b->c.
  const auto probs = counts.all_probabilities();
  EXPECT_EQ(probs.size(), 3u);
  for (const auto p : probs) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(PairCounter, SampledCountersAreSubsetOfExact) {
  // Build a bigger trace with repeated sessions.
  trace::Trace t;
  for (int session = 0; session < 200; ++session) {
    const auto base = static_cast<util::Seconds>(session * 1000);
    const auto client = std::string("c").append(std::to_string(session % 20));
    t.add({base}, client, "server", "/page.html");
    t.add({base + 5}, client, "server", "/img1.gif");
    t.add({base + 6}, client, "server", "/img2.gif");
  }
  t.sort_by_time();

  const auto exact_counts = PairCounterBuilder(exact()).build(t);

  auto sampled_config = exact();
  sampled_config.sample_counters = true;
  sampled_config.sample_threshold = 0.2;
  sampled_config.sample_k = 2.0;
  const auto sampled_counts = PairCounterBuilder(sampled_config).build(t);

  EXPECT_LE(sampled_counts.counter_count(), exact_counts.counter_count());
  // The dominant pair (page -> img1) must still be found, with a
  // probability estimate near the exact 1.0.
  const auto page = *t.paths().find("/page.html");
  const auto img1 = *t.paths().find("/img1.gif");
  EXPECT_DOUBLE_EQ(exact_counts.probability(page, img1), 1.0);
  EXPECT_GT(sampled_counts.probability(page, img1), 0.8);
}

TEST(PairCounter, SampledEstimateUnbiasedForFrequentPair) {
  // p(b|a) = 0.5 exactly; the sampled estimator (counting from counter
  // creation) should land near 0.5, not near 0.
  trace::Trace t;
  for (int i = 0; i < 500; ++i) {
    const auto base = static_cast<util::Seconds>(i * 1000);
    t.add({base}, "c1", "server", "/a");
    if (i % 2 == 0) t.add({base + 5}, "c1", "server", "/b");
  }
  t.sort_by_time();
  auto config = exact();
  config.sample_counters = true;
  config.sample_threshold = 0.2;
  const auto counts = PairCounterBuilder(config).build(t);
  const auto a = *t.paths().find("/a");
  const auto b = *t.paths().find("/b");
  EXPECT_NEAR(counts.probability(a, b), 0.5, 0.15);
}

TEST(PairCounter, EmptyTrace) {
  trace::Trace t;
  const auto counts = PairCounterBuilder(exact()).build(t);
  EXPECT_EQ(counts.counter_count(), 0u);
  EXPECT_TRUE(counts.all_probabilities().empty());
}

// ---------------------------------------------------------------------------
// PairObservations: the streaming training path must reproduce the Trace
// builds exactly, regardless of how the request stream is cut into windows.

trace::Trace make_random_pair_trace(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  trace::Trace t;
  util::Seconds now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    now += static_cast<util::Seconds>(rng.below(120));
    t.add({now}, std::string("c").append(std::to_string(rng.below(8))),
          "server",
          std::string("/d").append(std::to_string(rng.below(3))) + "/p" +
              std::to_string(rng.below(25)));
  }
  t.sort_by_time();
  return t;
}

void expect_counts_equal(const PairCounts& a, const PairCounts& b) {
  EXPECT_EQ(a.resource_occurrences(), b.resource_occurrences());
  ASSERT_EQ(a.counter_count(), b.counter_count());
  for (const auto& [key, pc] : a.pairs()) {
    const auto r = static_cast<util::InternId>(key >> 32);
    const auto s = static_cast<util::InternId>(key & 0xffffffffu);
    EXPECT_EQ(b.pair_count(r, s), pc.count) << "r " << r << " s " << s;
    EXPECT_DOUBLE_EQ(b.probability(r, s), a.probability(r, s))
        << "r " << r << " s " << s;
  }
}

PairObservations observe_whole(const trace::Trace& t) {
  PairObservations obs;
  obs.observe_window(t.requests());
  return obs;
}

TEST(PairObservations, ObservationBuildMatchesTraceBuild) {
  const auto t = make_random_pair_trace(31, 400);
  auto config = exact();
  config.restrict_prefix_level = 1;
  const auto from_trace = PairCounterBuilder(config).build(t, 2);
  const auto obs = observe_whole(t);
  const auto from_obs =
      PairCounterBuilder(config).build(obs, t.paths(), 2);
  expect_counts_equal(from_trace, from_obs);
}

TEST(PairObservations, WindowPartitionInvariance) {
  const auto t = make_random_pair_trace(32, 500);
  const auto whole = observe_whole(t);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    PairObservations pieces;
    std::size_t base = 0;
    const auto requests = std::span<const trace::Request>(t.requests());
    while (base < requests.size()) {
      const auto n =
          std::min<std::size_t>(1 + rng.below(64), requests.size() - base);
      pieces.observe_window(requests.subspan(base, n));
      base += n;
    }
    // Same builds from both logs, exact and sampled.
    for (const bool sampled : {false, true}) {
      auto config = exact();
      config.sample_counters = sampled;
      expect_counts_equal(
          PairCounterBuilder(config).build(whole, t.paths()),
          PairCounterBuilder(config).build(pieces, t.paths()));
    }
  }
}

TEST(PairObservations, SampledObservationBuildMatchesTraceBuild) {
  // The sampler draws from one RNG stream; the observation build must
  // visit candidates in exactly the serial trace order to reproduce it.
  const auto t = make_random_pair_trace(33, 600);
  auto config = exact();
  config.sample_counters = true;
  config.sample_threshold = 0.2;
  const auto from_trace = PairCounterBuilder(config).build(t);
  const auto from_obs =
      PairCounterBuilder(config).build(observe_whole(t), t.paths());
  expect_counts_equal(from_trace, from_obs);
}

}  // namespace
}  // namespace piggyweb::volume
