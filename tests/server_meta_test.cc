#include "server/meta.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace piggyweb::server {
namespace {

TEST(TraceMetaOracle, LearnsFromTrace) {
  trace::Trace t;
  t.add({0}, "c1", "svr", "/a.html", trace::Method::kGet, 200, 1000, 500);
  t.add({10}, "c2", "svr", "/a.html", trace::Method::kGet, 200, 1000, 600);
  t.add({20}, "c1", "svr", "/b.gif", trace::Method::kGet, 200, 64, -1);
  const TraceMetaOracle meta(t);

  const auto server = *t.servers().find("svr");
  const auto a = meta.lookup(server, *t.paths().find("/a.html"));
  EXPECT_EQ(a.access_count, 2u);
  EXPECT_EQ(a.size, 1000u);
  EXPECT_EQ(a.last_modified, 600);  // the newest observed LM
  EXPECT_EQ(a.type, trace::ContentType::kHtml);

  const auto b = meta.lookup(server, *t.paths().find("/b.gif"));
  EXPECT_EQ(b.access_count, 1u);
  EXPECT_EQ(b.type, trace::ContentType::kImage);
}

TEST(TraceMetaOracle, SizeIsLargestObserved200) {
  trace::Trace t;
  t.add({0}, "c", "svr", "/a", trace::Method::kGet, 200, 500);
  t.add({1}, "c", "svr", "/a", trace::Method::kGet, 304, 0);
  t.add({2}, "c", "svr", "/a", trace::Method::kGet, 200, 700);
  const TraceMetaOracle meta(t);
  const auto a =
      meta.lookup(*t.servers().find("svr"), *t.paths().find("/a"));
  EXPECT_EQ(a.size, 700u);
  EXPECT_EQ(a.access_count, 3u);
}

TEST(TraceMetaOracle, UnknownResourceIsZero) {
  trace::Trace t;
  t.add({0}, "c", "svr", "/a");
  const TraceMetaOracle meta(t);
  const auto missing = meta.lookup(0, 999);
  EXPECT_EQ(missing.access_count, 0u);
  EXPECT_EQ(missing.size, 0u);
}

TEST(TraceMetaOracle, KeysSeparateServers) {
  trace::Trace t;
  t.add({0}, "c", "s1", "/a", trace::Method::kGet, 200, 100);
  t.add({1}, "c", "s2", "/a", trace::Method::kGet, 200, 200);
  const TraceMetaOracle meta(t);
  const auto path = *t.paths().find("/a");
  EXPECT_EQ(meta.lookup(*t.servers().find("s1"), path).size, 100u);
  EXPECT_EQ(meta.lookup(*t.servers().find("s2"), path).size, 200u);
}

TEST(SiteMetaOracle, ReadsGroundTruth) {
  util::Rng rng(5);
  trace::SiteShape shape;
  shape.pages = 20;
  const trace::SiteModel site(shape, util::kDay, rng);
  util::InternTable paths;
  SiteMetaOracle meta(site, paths);
  meta.set_now({1000});

  const auto& res = site.resource(0);
  const auto id = paths.intern(res.path);
  const auto looked = meta.lookup(0, id);
  EXPECT_EQ(looked.size, res.size);
  EXPECT_EQ(looked.type, res.type);
  EXPECT_EQ(looked.last_modified, site.last_modified(0, {1000}).value);
  EXPECT_EQ(looked.access_count, 0u);
}

TEST(SiteMetaOracle, CountsAccesses) {
  util::Rng rng(6);
  trace::SiteShape shape;
  shape.pages = 5;
  const trace::SiteModel site(shape, util::kDay, rng);
  util::InternTable paths;
  SiteMetaOracle meta(site, paths);
  const auto id = paths.intern(site.resource(0).path);
  meta.note_access(id);
  meta.note_access(id);
  EXPECT_EQ(meta.lookup(0, id).access_count, 2u);
}

TEST(SiteMetaOracle, UnknownPathIsEmptyMeta) {
  util::Rng rng(7);
  trace::SiteShape shape;
  shape.pages = 5;
  const trace::SiteModel site(shape, util::kDay, rng);
  util::InternTable paths;
  SiteMetaOracle meta(site, paths);
  const auto id = paths.intern("/not/on/site.html");
  EXPECT_EQ(meta.lookup(0, id).size, 0u);
}

TEST(SiteMetaOracle, LastModifiedTracksNow) {
  util::Rng rng(8);
  trace::SiteShape shape;
  shape.pages = 5;
  shape.hot_change_frac = 1.0;  // every resource changes within the day
  const trace::SiteModel site(shape, util::kDay, rng);
  ASSERT_FALSE(site.resource(0).changes.empty());
  const auto change = site.resource(0).changes.front();
  util::InternTable paths;
  SiteMetaOracle meta(site, paths);
  const auto id = paths.intern(site.resource(0).path);

  meta.set_now({change.value - 1});
  const auto before = meta.lookup(0, id).last_modified;
  meta.set_now(change);
  const auto after = meta.lookup(0, id).last_modified;
  EXPECT_LT(before, after);
  EXPECT_EQ(after, change.value);
}

TEST(SiteMetaOracle, ResolveMatchesSiteIndex) {
  util::Rng rng(9);
  trace::SiteShape shape;
  shape.pages = 20;
  const trace::SiteModel site(shape, util::kDay, rng);
  util::InternTable paths;
  SiteMetaOracle meta(site, paths);
  SiteMetaOracle never_resolved(site, paths);
  meta.set_now({5000});
  never_resolved.set_now({5000});

  std::vector<std::string> probes;
  for (const auto& res : site.resources()) probes.push_back(res.path);
  probes.push_back("/not/on/site.html");
  probes.push_back("/images/none.gif");
  for (const auto& path : probes) {
    const auto id = paths.intern(path);
    const auto idx = site.index_of(path);
    EXPECT_EQ(meta.resolve(id), idx) << path;
    EXPECT_EQ(meta.resolve(id), idx) << path;  // the stored answer
    meta.note_access(id);
    const auto resolved = meta.lookup(0, id);
    const auto probed = never_resolved.lookup(0, id);
    EXPECT_EQ(resolved.size, probed.size) << path;
    EXPECT_EQ(resolved.type, probed.type) << path;
    EXPECT_EQ(resolved.last_modified, probed.last_modified) << path;
    EXPECT_EQ(resolved.access_count, idx < site.size() ? 1u : 0u) << path;
    EXPECT_EQ(probed.access_count, 0u) << path;
  }
}

}  // namespace
}  // namespace piggyweb::server
