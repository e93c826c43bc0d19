#include "volume/serialize.h"

#include <sstream>

#include <gtest/gtest.h>

#include "volume/pair_counter.h"

namespace piggyweb::volume {
namespace {

ProbabilityVolumeSet sample_set(util::InternTable& paths) {
  ProbabilityVolumeSet set;
  set.add_volume(paths.intern("/a/page.html"),
                 {{paths.intern("/a/img.gif"), 0.875, 0.5},
                  {paths.intern("/a/next.html"), 0.25, 0.1}});
  set.add_volume(paths.intern("/b/doc.pdf"),
                 {{paths.intern("/b/toc.html"), 1.0, 1.0}});
  return set;
}

TEST(VolumeSerialize, SaveProducesHeaderAndVolumes) {
  util::InternTable paths;
  const auto set = sample_set(paths);
  std::ostringstream out;
  save_volume_set(out, set, paths);
  const auto text = out.str();
  EXPECT_EQ(text.rfind("piggyweb-volumes 1\n", 0), 0u);
  EXPECT_NE(text.find("volume /a/page.html 2"), std::string::npos);
  EXPECT_NE(text.find("volume /b/doc.pdf 1"), std::string::npos);
  EXPECT_NE(text.find("/a/img.gif 0.875 0.5"), std::string::npos);
}

TEST(VolumeSerialize, RoundTripPreservesEntries) {
  util::InternTable paths;
  const auto original = sample_set(paths);
  std::ostringstream out;
  save_volume_set(out, original, paths);

  std::istringstream in(out.str());
  util::InternTable loaded_paths;
  std::string error;
  const auto loaded = load_volume_set(in, loaded_paths, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->volume_count(), original.volume_count());

  const auto page = loaded_paths.find("/a/page.html");
  ASSERT_TRUE(page.has_value());
  const auto* entries = loaded->volume_of(*page);
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ(loaded_paths.str((*entries)[0].resource), "/a/img.gif");
  EXPECT_DOUBLE_EQ((*entries)[0].probability, 0.875);
  EXPECT_DOUBLE_EQ((*entries)[0].effectiveness, 0.5);
  EXPECT_DOUBLE_EQ((*entries)[1].probability, 0.25);
}

TEST(VolumeSerialize, DeterministicOutput) {
  util::InternTable paths;
  const auto set = sample_set(paths);
  std::ostringstream a, b;
  save_volume_set(a, set, paths);
  save_volume_set(b, set, paths);
  EXPECT_EQ(a.str(), b.str());
}

TEST(VolumeSerialize, RoundTripOfBuiltVolumes) {
  // Build from a real trace, round-trip, and compare per-resource
  // entries (ids may be renumbered; contents must survive bit for bit).
  // Seven rounds plus two page repeats within T give nine page requests,
  // so probabilities such as 5/9 and an effectiveness of 7/9: neither
  // has a short decimal form.
  trace::Trace t;
  for (int i = 0; i < 7; ++i) {
    const auto base = static_cast<util::Seconds>(i * 10000);
    t.add({base}, "c1", "server", "/page.html");
    if (i % 3 != 2) t.add({base + 5}, "c1", "server", "/img.gif");
    if (i % 2 == 0) t.add({base + 8}, "c1", "server", "/other.html");
    if (i % 3 == 1) t.add({base + 100}, "c1", "server", "/page.html");
  }
  t.sort_by_time();
  PairCounterConfig pcc;
  const auto counts = PairCounterBuilder(pcc).build(t);
  ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.2;
  pvc.effectiveness_threshold = 0.1;
  auto built = build_probability_volumes(t, counts, pvc);
  ASSERT_GT(built.volume_count(), 0u);

  std::ostringstream out;
  save_volume_set(out, built, t.paths());
  std::istringstream in(out.str());
  util::InternTable loaded_paths;
  std::string error;
  const auto loaded = load_volume_set(in, loaded_paths, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->volume_count(), built.volume_count());
  for (const auto& [r, entries] : built.volumes()) {
    const auto loaded_id = loaded_paths.find(t.paths().str(r));
    ASSERT_TRUE(loaded_id.has_value());
    const auto* loaded_entries = loaded->volume_of(*loaded_id);
    ASSERT_NE(loaded_entries, nullptr);
    ASSERT_EQ(loaded_entries->size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(loaded_paths.str((*loaded_entries)[i].resource),
                t.paths().str(entries[i].resource));
      EXPECT_EQ((*loaded_entries)[i].probability, entries[i].probability);
      EXPECT_EQ((*loaded_entries)[i].effectiveness,
                entries[i].effectiveness);
    }
  }
}

TEST(VolumeSerialize, LoadRejectsBadHeader) {
  util::InternTable paths;
  std::string error;
  std::istringstream empty("");
  EXPECT_FALSE(load_volume_set(empty, paths, error).has_value());
  std::istringstream wrong("not-volumes 1\n");
  EXPECT_FALSE(load_volume_set(wrong, paths, error).has_value());
  std::istringstream version("piggyweb-volumes 99\n");
  EXPECT_FALSE(load_volume_set(version, paths, error).has_value());
}

TEST(VolumeSerialize, LoadRejectsMalformedBody) {
  util::InternTable paths;
  std::string error;
  std::istringstream bad_count(
      "piggyweb-volumes 1\nvolume /a x\n");
  EXPECT_FALSE(load_volume_set(bad_count, paths, error).has_value());
  std::istringstream truncated(
      "piggyweb-volumes 1\nvolume /a 2\n/b 0.5 0.5\n");
  EXPECT_FALSE(load_volume_set(truncated, paths, error).has_value());
  std::istringstream bad_prob(
      "piggyweb-volumes 1\nvolume /a 1\n/b 1.5 0.5\n");
  EXPECT_FALSE(load_volume_set(bad_prob, paths, error).has_value());
  std::istringstream not_volume(
      "piggyweb-volumes 1\nnonsense line here\n");
  EXPECT_FALSE(load_volume_set(not_volume, paths, error).has_value());
}

TEST(VolumeSerialize, LoadToleratesBlankLinesBetweenVolumes) {
  util::InternTable paths;
  std::string error;
  std::istringstream in(
      "piggyweb-volumes 1\n\nvolume /a 1\n/b 0.5 0.25\n\n");
  const auto loaded = load_volume_set(in, paths, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->volume_count(), 1u);
}

}  // namespace
}  // namespace piggyweb::volume
