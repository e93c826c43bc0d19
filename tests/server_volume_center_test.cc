#include "server/volume_center.h"

#include <map>

#include <gtest/gtest.h>

#include "server/meta.h"

namespace piggyweb::server {
namespace {

class VolumeCenterTest : public ::testing::Test {
 protected:
  VolumeCenterTest() : center_(make_config(), paths_) {}

  static volume::DirectoryVolumeConfig make_config() {
    volume::DirectoryVolumeConfig config;
    config.level = 1;
    return config;
  }

  core::VolumeRequest exchange(util::InternId server, std::string_view path,
                               util::Seconds t, std::uint64_t size = 100) {
    core::VolumeRequest request;
    request.server = server;
    request.source = 1;
    request.path = paths_.intern(path);
    request.time = {t};
    request.size = size;
    request.type = trace::classify_path(path);
    return request;
  }

  // One exchange as a router sees it: the center's metadata is learned
  // from the traffic, one exchange at a time, before the piggyback is
  // built.
  core::PiggybackMessage observe(util::InternId server,
                                 std::string_view path, util::Seconds t,
                                 std::uint64_t size = 100,
                                 std::int64_t lm = 500,
                                 const core::ProxyFilter& filter = {}) {
    const auto request = exchange(server, path, t, size);
    trace::Request seen;
    seen.time = request.time;
    seen.source = request.source;
    seen.server = server;
    seen.path = request.path;
    seen.size = size;
    seen.last_modified = lm;
    learned_.observe_window({&seen, 1}, paths_);
    return center_.observe(request, filter, learned_);
  }

  util::InternTable paths_;
  TraceMetaOracle learned_;
  VolumeCenter center_;
};

TEST_F(VolumeCenterTest, FirstExchangeHasNothingToSay) {
  const auto message = observe(0, "/a/x.html", 0);
  EXPECT_TRUE(message.empty());
}

TEST_F(VolumeCenterTest, SecondExchangeInDirectoryPiggybacks) {
  observe(0, "/a/x.html", 0);
  const auto message = observe(0, "/a/y.html", 5);
  ASSERT_EQ(message.elements.size(), 1u);
  EXPECT_EQ(paths_.str(message.elements[0].resource), "/a/x.html");
  EXPECT_EQ(message.elements[0].size, 100u);
  EXPECT_EQ(message.elements[0].last_modified, 500);
}

TEST_F(VolumeCenterTest, ServersIsolated) {
  observe(0, "/a/x.html", 0);
  const auto cross = observe(7, "/a/y.html", 5);
  EXPECT_TRUE(cross.empty());  // server 7 never saw /a/x.html
  EXPECT_EQ(center_.stats().servers_tracked, 2u);
}

TEST_F(VolumeCenterTest, LearnsMetadataFromTraffic) {
  observe(0, "/a/x.gif", 0, /*size=*/2048, /*lm=*/700);
  const auto meta = learned_.lookup(0, *paths_.find("/a/x.gif"));
  EXPECT_EQ(meta.size, 2048u);
  EXPECT_EQ(meta.last_modified, 700);
  EXPECT_EQ(meta.type, trace::ContentType::kImage);
  EXPECT_EQ(meta.access_count, 1u);
}

TEST_F(VolumeCenterTest, MetadataTracksNewestLastModified) {
  observe(0, "/a/x.html", 0, 100, 700);
  observe(0, "/a/x.html", 10, 100, 600);  // older LM must not regress
  const auto meta = learned_.lookup(0, *paths_.find("/a/x.html"));
  EXPECT_EQ(meta.last_modified, 700);
  EXPECT_EQ(meta.access_count, 2u);
}

TEST_F(VolumeCenterTest, FilterAppliesToInjectedPiggyback) {
  observe(0, "/a/x.html", 0);
  observe(0, "/a/y.html", 5);
  core::ProxyFilter filter;
  filter.enabled = false;
  const auto suppressed = observe(0, "/a/z.html", 10, 100, 500, filter);
  EXPECT_TRUE(suppressed.empty());
}

TEST_F(VolumeCenterTest, StatsCountInjections) {
  observe(0, "/a/x.html", 0);
  observe(0, "/a/y.html", 5);
  observe(0, "/a/z.html", 8);
  const auto stats = center_.stats();
  EXPECT_EQ(stats.exchanges_observed, 3u);
  EXPECT_EQ(stats.piggybacks_injected, 2u);
  EXPECT_GE(stats.elements_injected, 3u);  // 1 then 2
}

TEST_F(VolumeCenterTest, MultiServerPiggybacksIndependently) {
  observe(0, "/a/x.html", 0);
  observe(7, "/a/p.html", 1);
  const auto m0 = observe(0, "/a/y.html", 5);
  const auto m7 = observe(7, "/a/q.html", 6);
  ASSERT_EQ(m0.elements.size(), 1u);
  ASSERT_EQ(m7.elements.size(), 1u);
  EXPECT_EQ(paths_.str(m0.elements[0].resource), "/a/x.html");
  EXPECT_EQ(paths_.str(m7.elements[0].resource), "/a/p.html");
}

// An authoritative oracle, as for a center fed by the origin: it knows
// what the traffic cannot, e.g. a body size or a change never fetched.
class OriginMeta final : public core::MetaOracle {
 public:
  void set(util::InternId resource, const core::ResourceMeta& meta) {
    meta_[resource] = meta;
  }
  core::ResourceMeta lookup(util::InternId /*server*/,
                            util::InternId resource) const override {
    const auto it = meta_.find(resource);
    return it == meta_.end() ? core::ResourceMeta{} : it->second;
  }

 private:
  std::map<util::InternId, core::ResourceMeta> meta_;
};

TEST_F(VolumeCenterTest, ElementsAndFiltersUseTheCallersOracle) {
  // The requests say 100 bytes of html; the origin says otherwise.
  OriginMeta origin;
  const auto x = paths_.intern("/a/x.html");
  const auto y = paths_.intern("/a/y.html");
  origin.set(x, {.size = 4096,
                 .last_modified = 800,
                 .type = trace::ContentType::kHtml});
  origin.set(y, {.size = 64,
                 .last_modified = 900,
                 .type = trace::ContentType::kImage});
  const core::ProxyFilter open;
  center_.observe(exchange(0, "/a/x.html", 0), open, origin);
  center_.observe(exchange(0, "/a/y.html", 1), open, origin);

  const auto all = center_.observe(exchange(0, "/a/z.html", 2), open, origin);
  ASSERT_EQ(all.elements.size(), 2u);
  EXPECT_EQ(all.elements[0].resource, y);  // most recent first
  EXPECT_EQ(all.elements[0].size, 64u);
  EXPECT_EQ(all.elements[0].last_modified, 900);
  EXPECT_EQ(all.elements[1].resource, x);
  EXPECT_EQ(all.elements[1].size, 4096u);
  EXPECT_EQ(all.elements[1].last_modified, 800);

  core::ProxyFilter small;
  small.max_size = 1000;
  const auto sized =
      center_.observe(exchange(0, "/a/z.html", 3), small, origin);
  ASSERT_EQ(sized.elements.size(), 1u);
  EXPECT_EQ(sized.elements[0].resource, y);

  core::ProxyFilter no_images;
  no_images.allow_image = false;
  const auto typed =
      center_.observe(exchange(0, "/a/z.html", 4), no_images, origin);
  ASSERT_EQ(typed.elements.size(), 1u);
  EXPECT_EQ(typed.elements[0].resource, x);
}

}  // namespace
}  // namespace piggyweb::server
