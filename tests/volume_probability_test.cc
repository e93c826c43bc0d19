#include "volume/probability.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "volume/pair_counter.h"

namespace piggyweb::volume {
namespace {

// A trace where /page is reliably followed by /img (p = 1.0) and
// sometimes by /weak (p = 0.25).
trace::Trace page_trace() {
  trace::Trace t;
  for (int i = 0; i < 8; ++i) {
    const auto base = static_cast<util::Seconds>(i * 10000);
    const auto client = std::string("c").append(std::to_string(i % 3));
    t.add({base}, client, "server", "/page.html");
    t.add({base + 5}, client, "server", "/img.gif");
    if (i % 4 == 0) t.add({base + 8}, client, "server", "/weak.html");
  }
  t.sort_by_time();
  return t;
}

PairCounts counts_for(const trace::Trace& t) {
  PairCounterConfig config;
  config.window = 300;
  return PairCounterBuilder(config).build(t);
}

TEST(ProbabilityVolumes, ThresholdSelectsMembers) {
  const auto t = page_trace();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.5;
  const auto set = build_probability_volumes(t, counts, config);

  const auto page = *t.paths().find("/page.html");
  const auto img = *t.paths().find("/img.gif");
  const auto weak = *t.paths().find("/weak.html");
  const auto* vol = set.volume_of(page);
  ASSERT_NE(vol, nullptr);
  bool has_img = false, has_weak = false;
  for (const auto& e : *vol) {
    has_img |= e.resource == img;
    has_weak |= e.resource == weak;
  }
  EXPECT_TRUE(has_img);
  EXPECT_FALSE(has_weak);  // p = 0.25 < 0.5
}

TEST(ProbabilityVolumes, LowerThresholdAdmitsMore) {
  const auto t = page_trace();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig low, high;
  low.probability_threshold = 0.2;
  high.probability_threshold = 0.9;
  const auto low_set = build_probability_volumes(t, counts, low);
  const auto high_set = build_probability_volumes(t, counts, high);
  EXPECT_GE(low_set.stats().total_entries, high_set.stats().total_entries);
}

TEST(ProbabilityVolumes, EntriesSortedByDescendingProbability) {
  const auto t = page_trace();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.1;
  const auto set = build_probability_volumes(t, counts, config);
  for (const auto& [r, entries] : set.volumes()) {
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_GE(entries[i - 1].probability, entries[i].probability);
    }
  }
}

TEST(ProbabilityVolumes, VolumeIdsDenseAndStable) {
  const auto t = page_trace();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.1;
  const auto set = build_probability_volumes(t, counts, config);
  const auto page = *t.paths().find("/page.html");
  const auto id = set.volume_id(page);
  EXPECT_NE(id, core::kNoVolume);
  EXPECT_LT(id, set.volume_count());
  EXPECT_EQ(set.volume_id(9999), core::kNoVolume);
}

TEST(ProbabilityVolumes, CombinedRestrictsToSharedPrefix) {
  trace::Trace t;
  for (int i = 0; i < 6; ++i) {
    const auto base = static_cast<util::Seconds>(i * 10000);
    t.add({base}, "c1", "server", "/a/page.html");
    t.add({base + 5}, "c1", "server", "/a/img.gif");
    t.add({base + 6}, "c1", "server", "/b/cross.html");
  }
  t.sort_by_time();
  const auto counts = counts_for(t);

  ProbabilityVolumeConfig plain;
  plain.probability_threshold = 0.5;
  const auto plain_set = build_probability_volumes(t, counts, plain);

  ProbabilityVolumeConfig combined = plain;
  combined.combine_prefix_level = 1;
  const auto combined_set = build_probability_volumes(t, counts, combined);

  const auto page = *t.paths().find("/a/page.html");
  const auto cross = *t.paths().find("/b/cross.html");
  const auto* plain_vol = plain_set.volume_of(page);
  ASSERT_NE(plain_vol, nullptr);
  const bool plain_has_cross =
      std::any_of(plain_vol->begin(), plain_vol->end(),
                  [cross](const VolumeEntry& e) {
                    return e.resource == cross;
                  });
  EXPECT_TRUE(plain_has_cross);

  const auto* combined_vol = combined_set.volume_of(page);
  ASSERT_NE(combined_vol, nullptr);
  for (const auto& e : *combined_vol) {
    EXPECT_NE(e.resource, cross);
  }
}

TEST(ProbabilityVolumes, EffectivenessThinningDropsRedundantImplications) {
  // /lead always precedes /page, and /page precedes /img; but /lead also
  // "predicts" /img — redundantly, because /page predicts it in the same
  // window. With effectiveness thinning, whichever implication fires
  // first (lead->img) keeps the credit and the later redundant one
  // (page->img) is dropped.
  trace::Trace t;
  for (int i = 0; i < 10; ++i) {
    const auto base = static_cast<util::Seconds>(i * 10000);
    t.add({base}, "c1", "server", "/lead.html");
    t.add({base + 5}, "c1", "server", "/page.html");
    t.add({base + 10}, "c1", "server", "/img.gif");
  }
  t.sort_by_time();
  const auto counts = counts_for(t);

  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.5;
  config.effectiveness_threshold = 0.5;
  const auto set = build_probability_volumes(t, counts, config);

  const auto lead = *t.paths().find("/lead.html");
  const auto page = *t.paths().find("/page.html");
  const auto img = *t.paths().find("/img.gif");

  const auto* lead_vol = set.volume_of(lead);
  ASSERT_NE(lead_vol, nullptr);
  EXPECT_TRUE(std::any_of(lead_vol->begin(), lead_vol->end(),
                          [img](const VolumeEntry& e) {
                            return e.resource == img;
                          }));
  // page->img is redundant (img already predicted by lead moments
  // earlier), so thinning removes it.
  const auto* page_vol = set.volume_of(page);
  if (page_vol != nullptr) {
    EXPECT_FALSE(std::any_of(page_vol->begin(), page_vol->end(),
                             [img](const VolumeEntry& e) {
                               return e.resource == img;
                             }));
  }
}

TEST(ProbabilityVolumes, ThinningShrinksOrKeepsVolumes) {
  const auto t = page_trace();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig base;
  base.probability_threshold = 0.2;
  ProbabilityVolumeConfig thinned = base;
  thinned.effectiveness_threshold = 0.2;
  const auto base_set = build_probability_volumes(t, counts, base);
  const auto thin_set = build_probability_volumes(t, counts, thinned);
  EXPECT_LE(thin_set.stats().total_entries, base_set.stats().total_entries);
}

TEST(ProbabilityVolumes, StatsSymmetricAndSelf) {
  // a <-> b always co-occur both ways; c only follows a.
  trace::Trace t;
  for (int i = 0; i < 6; ++i) {
    const auto base = static_cast<util::Seconds>(i * 10000);
    t.add({base}, "c1", "server", "/a");
    t.add({base + 5}, "c1", "server", "/b");
    t.add({base + 8}, "c1", "server", "/a");
  }
  t.sort_by_time();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.4;
  const auto set = build_probability_volumes(t, counts, config);
  const auto stats = set.stats();
  EXPECT_GT(stats.volumes, 0u);
  EXPECT_GT(stats.symmetric_fraction, 0.0);  // a and b imply each other
  EXPECT_GT(stats.self_fraction, 0.0);       // a repeats within the window
}

TEST(ProbabilityVolumes, ProviderReturnsSortedCandidatesWithProbs) {
  const auto t = page_trace();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.1;
  const auto set = build_probability_volumes(t, counts, config);
  ProbabilityVolumes provider(&set, 10);

  core::VolumeRequest request;
  request.path = *t.paths().find("/page.html");
  request.time = {0};
  const auto prediction = provider.on_request(request);
  EXPECT_NE(prediction.volume, core::kNoVolume);
  ASSERT_FALSE(prediction.resources.empty());
  ASSERT_EQ(prediction.resources.size(), prediction.probs.size());
  for (std::size_t i = 1; i < prediction.probs.size(); ++i) {
    EXPECT_GE(prediction.probs[i - 1], prediction.probs[i]);
  }
  EXPECT_STREQ(provider.scheme_name(), "probability");
}

TEST(ProbabilityVolumes, ProviderUnknownResourceEmpty) {
  const auto t = page_trace();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  const auto set = build_probability_volumes(t, counts, config);
  ProbabilityVolumes provider(&set, 10);
  core::VolumeRequest request;
  request.path = 424242;
  const auto prediction = provider.on_request(request);
  EXPECT_TRUE(prediction.empty());
  EXPECT_EQ(prediction.volume, core::kNoVolume);
}

TEST(ProbabilityVolumes, PerVolumeEntryCap) {
  trace::Trace t;
  for (int rep = 0; rep < 3; ++rep) {
    const auto base = static_cast<util::Seconds>(rep * 10000);
    t.add({base}, "c1", "server", "/hub");
    for (int i = 0; i < 10; ++i) {
      t.add({base + 1 + i}, "c1", "server", "/r" + std::to_string(i));
    }
  }
  t.sort_by_time();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.5;
  config.max_entries_per_volume = 4;
  const auto set = build_probability_volumes(t, counts, config);
  for (const auto& [r, entries] : set.volumes()) {
    EXPECT_LE(entries.size(), 4u);
  }
  const auto* hub = set.volume_of(*t.paths().find("/hub"));
  ASSERT_NE(hub, nullptr);
  EXPECT_EQ(hub->size(), 4u);
}

TEST(ProbabilityVolumes, MaxCandidatesCaps) {
  trace::Trace t;
  // /hub is followed by 20 distinct resources, all with p = 1.
  for (int rep = 0; rep < 3; ++rep) {
    const auto base = static_cast<util::Seconds>(rep * 10000);
    t.add({base}, "c1", "server", "/hub");
    for (int i = 0; i < 20; ++i) {
      t.add({base + 1 + i}, "c1", "server", "/r" + std::to_string(i));
    }
  }
  t.sort_by_time();
  const auto counts = counts_for(t);
  ProbabilityVolumeConfig config;
  config.probability_threshold = 0.5;
  const auto set = build_probability_volumes(t, counts, config);
  ProbabilityVolumes provider(&set, /*max_candidates=*/5);
  core::VolumeRequest request;
  request.path = *t.paths().find("/hub");
  EXPECT_EQ(provider.on_request(request).resources.size(), 5u);
}

}  // namespace
}  // namespace piggyweb::volume
