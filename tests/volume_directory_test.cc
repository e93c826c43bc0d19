#include "volume/directory.h"

#include <gtest/gtest.h>

namespace piggyweb::volume {
namespace {

class DirectoryVolumesTest : public ::testing::Test {
 protected:
  core::VolumeRequest request(std::string_view path,
                              util::Seconds t = 0,
                              std::uint64_t size = 100,
                              trace::ContentType type =
                                  trace::ContentType::kHtml) {
    core::VolumeRequest r;
    r.server = 0;
    r.source = 0;
    r.path = paths_.intern(path);
    r.time = {t};
    r.size = size;
    r.type = type;
    return r;
  }

  DirectoryVolumes make(int level, std::size_t max_elements = 2000,
                        std::size_t max_candidates = 200) {
    DirectoryVolumeConfig config;
    config.level = level;
    config.max_volume_elements = max_elements;
    config.max_candidates = max_candidates;
    DirectoryVolumes volumes(config);
    volumes.bind_paths(paths_);
    return volumes;
  }

  std::vector<std::string> names(const core::VolumePrediction& p) const {
    std::vector<std::string> out;
    for (const auto resource : p.resources) {
      out.emplace_back(paths_.str(resource));
    }
    return out;
  }

  util::InternTable paths_;
};

TEST_F(DirectoryVolumesTest, SamePrefixSharesVolume) {
  auto volumes = make(1);
  // The paper's example: /a/b.html and /a/d/e.html share a 1-level
  // volume; /f/g.html does not.
  const auto p1 = volumes.on_request(request("/a/b.html", 0));
  const auto p2 = volumes.on_request(request("/a/d/e.html", 1));
  const auto p3 = volumes.on_request(request("/f/g.html", 2));
  EXPECT_EQ(p1.volume, p2.volume);
  EXPECT_NE(p1.volume, p3.volume);
  EXPECT_EQ(volumes.volume_count(), 2u);
}

TEST_F(DirectoryVolumesTest, ZeroLevelIsSiteWide) {
  auto volumes = make(0);
  const auto p1 = volumes.on_request(request("/a/b.html", 0));
  const auto p2 = volumes.on_request(request("/f/g.html", 1));
  EXPECT_EQ(p1.volume, p2.volume);
  EXPECT_EQ(volumes.volume_count(), 1u);
}

TEST_F(DirectoryVolumesTest, CandidatesInRecencyOrder) {
  auto volumes = make(1);
  volumes.on_request(request("/a/1.html", 0));
  volumes.on_request(request("/a/2.html", 10));
  const auto p = volumes.on_request(request("/a/3.html", 20));
  ASSERT_EQ(p.resources.size(), 3u);
  EXPECT_EQ(paths_.str(p.resources[0]), "/a/3.html");
  EXPECT_EQ(paths_.str(p.resources[1]), "/a/2.html");
  EXPECT_EQ(paths_.str(p.resources[2]), "/a/1.html");
}

TEST_F(DirectoryVolumesTest, MoveToFrontOnReaccess) {
  auto volumes = make(1);
  volumes.on_request(request("/a/1.html", 0));
  volumes.on_request(request("/a/2.html", 10));
  volumes.on_request(request("/a/1.html", 20));  // 1 back to front
  const auto p = volumes.on_request(request("/a/3.html", 30));
  ASSERT_EQ(p.resources.size(), 3u);
  EXPECT_EQ(paths_.str(p.resources[1]), "/a/1.html");
  EXPECT_EQ(paths_.str(p.resources[2]), "/a/2.html");
}

TEST_F(DirectoryVolumesTest, NoDuplicateElements) {
  auto volumes = make(1);
  for (int i = 0; i < 5; ++i) {
    volumes.on_request(request("/a/x.html", i));
  }
  const auto p = volumes.on_request(request("/a/x.html", 10));
  EXPECT_EQ(p.resources.size(), 1u);
  EXPECT_EQ(volumes.volume_size(p.volume), 1u);
}

TEST_F(DirectoryVolumesTest, TrimsToMaxElements) {
  auto volumes = make(1, /*max_elements=*/3);
  for (int i = 0; i < 10; ++i) {
    volumes.on_request(
        request("/a/r" + std::to_string(i) + ".html", i));
  }
  const auto p = volumes.on_request(request("/a/q.html", 100));
  EXPECT_LE(volumes.volume_size(p.volume), 3u);
  // Survivors are the most recently used.
  ASSERT_GE(p.resources.size(), 2u);
  EXPECT_EQ(paths_.str(p.resources[0]), "/a/q.html");
  EXPECT_EQ(paths_.str(p.resources[1]), "/a/r9.html");
}

TEST_F(DirectoryVolumesTest, EvictionPicksOldestAcrossPartitions) {
  auto volumes = make(1, /*max_elements=*/2);
  volumes.on_request(request("/a/old.html", 0, 100,
                             trace::ContentType::kHtml));
  volumes.on_request(request("/a/img.gif", 10, 100,
                             trace::ContentType::kImage));
  volumes.on_request(request("/a/new.html", 20, 100,
                             trace::ContentType::kHtml));
  const auto p = volumes.on_request(request("/a/img.gif", 30));
  // old.html (the oldest) was evicted even though img.gif sat in a
  // different partition.
  for (const auto res : p.resources) {
    EXPECT_NE(paths_.str(res), "/a/old.html");
  }
}

TEST_F(DirectoryVolumesTest, MaxCandidatesCapsOutput) {
  auto volumes = make(1, 2000, /*max_candidates=*/5);
  for (int i = 0; i < 20; ++i) {
    volumes.on_request(request("/a/r" + std::to_string(i) + ".html", i));
  }
  const auto p = volumes.on_request(request("/a/q.html", 100));
  EXPECT_EQ(p.resources.size(), 5u);
}

TEST_F(DirectoryVolumesTest, PartitionMigrationOnTypeChange) {
  auto volumes = make(1);
  volumes.on_request(request("/a/r.html", 0, 100,
                             trace::ContentType::kHtml));
  // Same resource reported with a large size later: must migrate, not
  // duplicate.
  volumes.on_request(request("/a/r.html", 10, 100000,
                             trace::ContentType::kHtml));
  const auto p = volumes.on_request(request("/a/other.html", 20));
  EXPECT_EQ(p.resources.size(), 2u);
  EXPECT_EQ(volumes.volume_size(p.volume), 2u);
}

// Tie order. Timestamps are whole seconds, so several elements often
// share one; partitions are html small 0, html large 1, image small 2.

TEST_F(DirectoryVolumesTest, SameSecondPartitionsOfferedAscending) {
  auto volumes = make(1);
  volumes.on_request(request("/a/img.gif", 5, 100, trace::ContentType::kImage));
  volumes.on_request(request("/a/small.html", 5, 100));
  const auto p = volumes.on_request(request("/a/big.html", 5, 100000));
  EXPECT_EQ(names(p), (std::vector<std::string>{"/a/small.html",
                                                "/a/big.html",
                                                "/a/img.gif"}));
}

TEST_F(DirectoryVolumesTest, SameSecondSamePartitionOfferedMruFirst) {
  auto volumes = make(1);
  volumes.on_request(request("/a/1.html", 5));
  const auto p = volumes.on_request(request("/a/2.html", 5));
  EXPECT_EQ(names(p), (std::vector<std::string>{"/a/2.html", "/a/1.html"}));
}

TEST_F(DirectoryVolumesTest, SameSecondMigrationLeadsItsNewPartition) {
  auto volumes = make(1);
  volumes.on_request(request("/a/b.html", 5, 100000));
  volumes.on_request(request("/a/c.html", 5, 100000));
  volumes.on_request(request("/a/d.html", 5, 100));
  volumes.on_request(request("/a/m.html", 5, 100));
  // m grows into partition 1 within the same second: ahead of c and b,
  // behind d, which stays in partition 0.
  const auto p = volumes.on_request(request("/a/m.html", 5, 100000));
  EXPECT_EQ(names(p), (std::vector<std::string>{"/a/d.html", "/a/m.html",
                                                "/a/c.html", "/a/b.html"}));
}

TEST_F(DirectoryVolumesTest, TrimInOldestSecondEvictsLowerPartitionLru) {
  auto volumes = make(1, /*max_elements=*/3);
  volumes.on_request(request("/a/x.html", 1, 100000));  // partition 1
  volumes.on_request(request("/a/y.html", 1, 100));     // partition 0
  volumes.on_request(request("/a/z.html", 1, 100));     // partition 0
  // Second 1 is the oldest and spans partitions 0 and 1: the list tail x
  // stays, and y, partition 0's least recently used, goes.
  const auto p = volumes.on_request(request("/a/w.html", 2, 100));
  EXPECT_EQ(names(p), (std::vector<std::string>{"/a/w.html", "/a/z.html",
                                                "/a/x.html"}));
}

TEST_F(DirectoryVolumesTest, OlderTouchLandsInLastAccessOrder) {
  // Callers touch in non-decreasing time. An older touch is still placed
  // by its own last access, behind every element accessed later.
  auto volumes = make(1, /*max_elements=*/3);
  volumes.on_request(request("/a/a.html", 10));
  volumes.on_request(request("/a/b.html", 20));
  auto p = volumes.on_request(request("/a/a.html", 15));
  EXPECT_EQ(names(p), (std::vector<std::string>{"/a/b.html", "/a/a.html"}));
  volumes.on_request(request("/a/c.html", 12));
  // Over the bound, the oldest access goes: c, touched last.
  p = volumes.on_request(request("/a/d.html", 18));
  EXPECT_EQ(names(p), (std::vector<std::string>{"/a/b.html", "/a/d.html",
                                                "/a/a.html"}));
}

TEST_F(DirectoryVolumesTest, ServersKeepSeparateVolumes) {
  auto volumes = make(1);
  auto r1 = request("/a/x.html", 0);
  auto r2 = request("/a/x.html", 1);
  r2.server = 7;
  const auto p1 = volumes.on_request(r1);
  const auto p2 = volumes.on_request(r2);
  EXPECT_NE(p1.volume, p2.volume);
}

TEST_F(DirectoryVolumesTest, PeekVolumeDoesNotCreate) {
  auto volumes = make(1);
  EXPECT_EQ(volumes.peek_volume(0, "/a/x.html"), core::kNoVolume);
  volumes.on_request(request("/a/x.html", 0));
  EXPECT_NE(volumes.peek_volume(0, "/a/x.html"), core::kNoVolume);
  EXPECT_EQ(volumes.volume_count(), 1u);
}

TEST_F(DirectoryVolumesTest, DirectoryProbsEmpty) {
  auto volumes = make(1);
  const auto p = volumes.on_request(request("/a/x.html", 0));
  EXPECT_TRUE(p.probs.empty());
  EXPECT_STREQ(volumes.scheme_name(), "directory");
}

TEST_F(DirectoryVolumesTest, RootFilesShareRootVolume) {
  auto volumes = make(1);
  const auto p1 = volumes.on_request(request("/index.html", 0));
  const auto p2 = volumes.on_request(request("/about.html", 1));
  EXPECT_EQ(p1.volume, p2.volume);
}

// Level sweep: deeper prefixes never merge paths that shallower ones split.
class DirectoryLevelTest : public DirectoryVolumesTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(DirectoryLevelTest, VolumeCountGrowsWithLevel) {
  const int level = GetParam();
  auto shallow = make(level);
  auto deep = make(level + 1);
  const std::vector<std::string> paths = {
      "/a/b/c/one.html", "/a/b/d/two.html", "/a/e/f/three.html",
      "/g/h/i/four.html", "/top.html"};
  for (std::size_t i = 0; i < paths.size(); ++i) {
    shallow.on_request(request(paths[i], static_cast<util::Seconds>(i)));
    deep.on_request(request(paths[i], static_cast<util::Seconds>(i)));
  }
  EXPECT_LE(shallow.volume_count(), deep.volume_count());
}

INSTANTIATE_TEST_SUITE_P(Levels, DirectoryLevelTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace piggyweb::volume
