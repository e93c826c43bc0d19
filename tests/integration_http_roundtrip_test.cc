// End-to-end HTTP integration: a proxy-side client and the simulated
// origin server exchange real serialized HTTP/1.1 bytes, with the
// Piggy-filter request header and the P-volume chunked trailer exactly as
// §2.3 specifies.
#include <gtest/gtest.h>

#include "http/date.h"
#include "http/message.h"
#include "http/piggy_headers.h"
#include "proxy/cache.h"
#include "proxy/coherency.h"
#include "proxy/filter_policy.h"
#include "server/origin.h"
#include "util/rng.h"
#include "util/strings.h"
#include "volume/directory.h"

namespace piggyweb {
namespace {

class HttpRoundTripTest : public ::testing::Test {
 protected:
  HttpRoundTripTest()
      : site_(make_site()),
        volumes_(make_volume_config()),
        origin_(site_, volumes_, server_paths_),
        cache_(make_cache_config()),
        filter_policy_(make_policy_config()),
        coherency_(cache_) {
    volumes_.bind_paths(server_paths_);
    server_id_ = proxy_paths_.intern(site_.host());
  }

  static trace::SiteModel make_site() {
    util::Rng rng(1234);
    trace::SiteShape shape;
    shape.pages = 40;
    shape.top_dirs = 4;
    shape.images_per_page_mean = 3.0;
    return trace::SiteModel(shape, 10 * util::kDay, rng);
  }

  static volume::DirectoryVolumeConfig make_volume_config() {
    volume::DirectoryVolumeConfig config;
    config.level = 1;
    return config;
  }

  static proxy::CacheConfig make_cache_config() {
    proxy::CacheConfig config;
    config.capacity_bytes = 8 * 1024 * 1024;
    config.freshness_interval = 600;
    return config;
  }

  static proxy::FilterPolicyConfig make_policy_config() {
    proxy::FilterPolicyConfig config;
    config.base.max_elements = 10;
    config.rpv.timeout = 60;
    return config;
  }

  // Full proxy-side fetch over serialized bytes: build request, parse at
  // the server, serialize the response, parse at the proxy, apply cache
  // and piggyback processing. Returns the parsed response.
  http::Response fetch(const std::string& path, util::TimePoint now) {
    http::Request request;
    request.target = path;
    request.headers.add("Host", site_.host());
    const proxy::CacheKey key{server_id_, proxy_paths_.intern(path)};
    if (const auto lm = cache_.cached_last_modified(key)) {
      request.headers.add("If-Modified-Since", http::format_http_date(*lm));
    }
    http::attach_filter(request, filter_policy_.filter_for(server_id_, now));

    // --- wire: proxy -> server ---
    const auto request_bytes = request.serialize();
    http::ParseError error;
    const auto server_view = http::parse_request(request_bytes, error);
    EXPECT_TRUE(server_view.has_value()) << error.message;

    auto response = origin_.handle(server_view->request, now, /*source=*/1);

    // --- wire: server -> proxy ---
    const auto response_bytes = response.serialize();
    const auto proxy_view = http::parse_response(response_bytes, error);
    EXPECT_TRUE(proxy_view.has_value()) << error.message;
    const auto& parsed = proxy_view->response;

    // Proxy bookkeeping: cache the body / revalidate, then process the
    // piggyback (§2.1 "proxy receives a server response").
    std::int64_t lm = -1;
    if (const auto lm_text = parsed.headers.get("Last-Modified")) {
      EXPECT_TRUE(http::parse_http_date(*lm_text, lm));
    }
    if (parsed.status == 200) {
      cache_.insert(key, parsed.body.size(), lm, now);
    } else if (parsed.status == 304) {
      cache_.revalidate(key, now);
    }
    if (const auto piggyback =
            http::extract_pvolume(parsed, proxy_paths_)) {
      coherency_.process(server_id_, *piggyback, now);
      filter_policy_.on_piggyback(server_id_, piggyback->volume, now);
    }
    return parsed;
  }

  // Two pages sharing a 1-level directory.
  std::pair<std::string, std::string> directory_pair() const {
    const auto& pages = site_.pages_by_popularity();
    for (const auto a : pages) {
      for (const auto b : pages) {
        if (a == b) continue;
        const auto pa = site_.resource(a).path;
        const auto pb = site_.resource(b).path;
        if (util::directory_prefix(pa, 1) == util::directory_prefix(pb, 1) &&
            util::directory_prefix(pa, 1) != "/") {
          return {pa, pb};
        }
      }
    }
    return {};
  }

  trace::SiteModel site_;
  util::InternTable server_paths_;
  util::InternTable proxy_paths_;
  volume::DirectoryVolumes volumes_;
  server::OriginServer origin_;
  proxy::ProxyCache cache_;
  proxy::FilterPolicy filter_policy_;
  proxy::CoherencyAgent coherency_;
  util::InternId server_id_ = 0;
};

TEST_F(HttpRoundTripTest, BasicFetchCachesResource) {
  const auto& res = site_.resource(site_.pages_by_popularity()[0]);
  const auto response = fetch(res.path, {100});
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), res.size);
  EXPECT_TRUE(
      cache_.contains({server_id_, *proxy_paths_.find(res.path)}));
}

TEST_F(HttpRoundTripTest, RevalidationGets304) {
  const auto& res = site_.resource(site_.pages_by_popularity()[0]);
  fetch(res.path, {100});
  // Past the freshness interval the proxy sends If-Modified-Since; the
  // resource is unchanged so the server answers 304.
  const auto response = fetch(res.path, {100 + 700});
  EXPECT_EQ(response.status, 304);
  EXPECT_TRUE(response.body.empty());
}

TEST_F(HttpRoundTripTest, PiggybackFlowsThroughWire) {
  const auto [first, second] = directory_pair();
  ASSERT_FALSE(first.empty());
  fetch(first, {100});
  const auto response = fetch(second, {105});
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.chunked);
  ASSERT_TRUE(response.headers.contains("Trailer"));
  util::InternTable scratch;
  const auto piggyback = http::extract_pvolume(response, scratch);
  ASSERT_TRUE(piggyback.has_value());
  EXPECT_GE(piggyback->elements.size(), 1u);
}

TEST_F(HttpRoundTripTest, PiggybackRefreshAvoidsRevalidation) {
  const auto [first, second] = directory_pair();
  ASSERT_FALSE(first.empty());

  fetch(first, {100});  // cache `first`
  // Just before expiry, a request for `second` piggybacks `first`'s
  // Last-Modified, refreshing the cache entry for free.
  fetch(second, {100 + 590});
  EXPECT_GE(coherency_.stats().refreshed, 1u);
  // At 100+650 `first` would have been stale without the refresh; the
  // refreshed entry serves without any revalidation.
  const proxy::CacheKey key{server_id_, *proxy_paths_.find(first)};
  EXPECT_EQ(cache_.lookup(key, {100 + 650}),
            proxy::LookupOutcome::kFreshHit);
}

TEST_F(HttpRoundTripTest, RpvSuppressesRepeatPiggybacks) {
  const auto [first, second] = directory_pair();
  ASSERT_FALSE(first.empty());
  fetch(first, {100});
  const auto with_piggy = fetch(second, {105});
  util::InternTable scratch;
  ASSERT_TRUE(http::extract_pvolume(with_piggy, scratch).has_value());
  // Immediately after, the proxy's RPV names that volume — the server
  // must stay silent.
  const auto suppressed = fetch(first, {110});
  util::InternTable scratch2;
  EXPECT_FALSE(http::extract_pvolume(suppressed, scratch2).has_value());
}

TEST_F(HttpRoundTripTest, FeedbackLoopClosesOverTheWire) {
  // §5: the proxy reports cache hits attributable to piggybacked volumes
  // on its next request; the server aggregates them with no per-proxy
  // state.
  const auto [first, second] = directory_pair();
  ASSERT_FALSE(first.empty());

  core::HitFeedback feedback;
  fetch(first, {100});
  const auto response = fetch(second, {105});
  util::InternTable scratch;
  const auto piggyback = http::extract_pvolume(response, scratch);
  ASSERT_TRUE(piggyback.has_value());

  // Track the piggyback, then record two cache hits for the mentioned
  // resource (use proxy-side path ids to mirror fetch()'s bookkeeping).
  core::PiggybackMessage proxy_view;
  proxy_view.volume = piggyback->volume;
  for (const auto& element : piggyback->elements) {
    proxy_view.elements.push_back(
        {proxy_paths_.intern(scratch.str(element.resource)), element.size,
         element.last_modified});
  }
  feedback.note_piggyback(server_id_, proxy_view);
  feedback.note_cache_hit(server_id_, proxy_view.elements[0].resource);
  feedback.note_cache_hit(server_id_, proxy_view.elements[0].resource);

  // Next request carries the report.
  http::Request request;
  request.target = first;
  request.headers.add("Host", site_.host());
  http::attach_filter(request,
                      filter_policy_.filter_for(server_id_, {110}));
  http::attach_hits(request, feedback.drain(server_id_));

  const auto wire = request.serialize();
  EXPECT_NE(wire.find("Piggy-hits: "), std::string::npos);
  http::ParseError error;
  const auto at_server = http::parse_request(wire, error);
  ASSERT_TRUE(at_server.has_value()) << error.message;
  origin_.handle(at_server->request, {110}, 1);

  EXPECT_EQ(origin_.feedback().total_hits(), 2u);
  EXPECT_EQ(origin_.feedback().hits_for(piggyback->volume), 2u);
}

TEST_F(HttpRoundTripTest, WireBytesLookLikeThePaper) {
  const auto [first, second] = directory_pair();
  ASSERT_FALSE(first.empty());
  fetch(first, {100});

  // Build the request the proxy would send for `second` and check the
  // §2.3 shape of the on-the-wire text.
  http::Request request;
  request.target = second;
  request.headers.add("Host", site_.host());
  http::attach_filter(request,
                      filter_policy_.filter_for(server_id_, {105}));
  const auto wire = request.serialize();
  EXPECT_NE(wire.find("TE: chunked\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Piggy-filter: "), std::string::npos);

  auto response = origin_.handle(request, {105}, 1);
  const auto response_wire = response.serialize();
  EXPECT_NE(response_wire.find("Transfer-Encoding: chunked\r\n"),
            std::string::npos);
  EXPECT_NE(response_wire.find("Trailer: P-volume\r\n"), std::string::npos);
  EXPECT_NE(response_wire.find("P-volume: vid="), std::string::npos);
  // The chunked body ends with the mandatory zero-length chunk before the
  // trailer.
  EXPECT_NE(response_wire.find("\r\n0\r\n"), std::string::npos);
}

}  // namespace
}  // namespace piggyweb
