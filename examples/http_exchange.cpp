// The §2.3 protocol exchange, byte for byte.
//
// A proxy builds a GET with `TE: chunked` and a `Piggy-filter` header; the
// simulated origin answers with a chunked response whose trailer carries
// the `P-volume` piggyback; the proxy parses it back and applies it to its
// cache. The actual on-the-wire messages are printed, mirroring the
// paper's request/response listing.
//
// Build & run:  ./build/examples/http_exchange
#include <cstdio>
#include <string>

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

using namespace piggyweb;

namespace {

void print_wire(const char* label, const std::string& bytes,
                std::size_t body_limit = 400) {
  std::printf("----- %s (%zu bytes) -----\n", label, bytes.size());
  if (bytes.size() <= body_limit) {
    std::printf("%s\n", bytes.c_str());
    return;
  }
  std::printf("%.*s\n... [%zu body bytes elided] ...\n%s\n",
              static_cast<int>(body_limit / 2),
              bytes.c_str(), bytes.size() - body_limit,
              bytes.substr(bytes.size() - body_limit / 2).c_str());
}

}  // namespace

int main() {
  // A small site with a "mafia" flavour, as in the paper's example.
  util::Rng rng(0x5160);
  trace::SiteShape shape;
  shape.host = "sig.com";
  shape.pages = 24;
  shape.top_dirs = 3;
  shape.images_per_page_mean = 2.0;
  const trace::SiteModel site(shape, 10 * util::kDay, rng);

  util::InternTable paths;
  volume::DirectoryVolumeConfig dvc;
  dvc.level = 1;
  volume::DirectoryVolumes volumes(dvc);
  volumes.bind_paths(paths);
  server::OriginServer origin(site, volumes, paths);

  proxy::CacheConfig cache_config;
  cache_config.freshness_interval = 600;
  proxy::ProxyCache cache(cache_config);
  proxy::FilterPolicyConfig fpc;
  fpc.base.max_elements = 10;
  fpc.rpv.timeout = 60;
  proxy::FilterPolicy filter_policy(fpc);
  proxy::CoherencyAgent coherency(cache);
  util::InternTable proxy_paths;
  const auto server_id = proxy_paths.intern(site.host());

  // Warm the server's volume with one exchange, then show the second
  // request/response pair in full.
  const auto& pages = site.pages_by_popularity();
  const auto first = site.resource(pages[0]).path;
  std::string second;
  for (const auto p : pages) {
    const auto& candidate = site.resource(p).path;
    if (candidate != first &&
        util::directory_prefix(candidate, 1) ==
            util::directory_prefix(first, 1)) {
      second = candidate;
      break;
    }
  }
  if (second.empty()) second = site.resource(pages[1]).path;

  http::Request warmup;
  warmup.target = first;
  warmup.headers.add("Host", site.host());
  http::attach_filter(warmup, filter_policy.filter_for(server_id, {100}));
  origin.handle(warmup, {100}, 1);
  std::printf("warm-up: GET %s at t=100 (primes the level-1 volume)\n\n",
              first.c_str());

  // --- the exchange shown in the paper -------------------------------------
  http::Request request;
  request.target = second;
  request.headers.add("host", site.host());
  http::attach_filter(request, filter_policy.filter_for(server_id, {105}));
  const auto request_wire = request.serialize();
  print_wire("proxy -> server", request_wire);

  http::ParseError error;
  const auto at_server = http::parse_request(request_wire, error);
  if (!at_server) {
    std::printf("server failed to parse request: %s\n",
                error.message.c_str());
    return 1;
  }
  auto response = origin.handle(at_server->request, {105}, 1);
  const auto response_wire = response.serialize();
  print_wire("server -> proxy", response_wire);

  const auto at_proxy = http::parse_response(response_wire, error);
  if (!at_proxy) {
    std::printf("proxy failed to parse response: %s\n",
                error.message.c_str());
    return 1;
  }
  const auto& parsed = at_proxy->response;
  std::int64_t lm = -1;
  if (const auto lm_text = parsed.headers.get("Last-Modified")) {
    http::parse_http_date(*lm_text, lm);
  }
  const proxy::CacheKey key{server_id, proxy_paths.intern(second)};
  cache.insert(key, parsed.body.size(), lm, {105});

  if (const auto piggyback = http::extract_pvolume(parsed, proxy_paths)) {
    std::printf("\nproxy extracted piggyback: volume %u, %zu element(s)\n",
                piggyback->volume, piggyback->elements.size());
    for (const auto& element : piggyback->elements) {
      std::printf("  %s  (%llu bytes, Last-Modified %s)\n",
                  std::string(proxy_paths.str(element.resource)).c_str(),
                  static_cast<unsigned long long>(element.size),
                  http::format_http_date(element.last_modified).c_str());
    }
    coherency.process(server_id, *piggyback, {105});
    filter_policy.on_piggyback(server_id, piggyback->volume, {105});
    std::printf(
        "coherency: %llu refreshed, %llu invalidated, %llu not cached\n",
        static_cast<unsigned long long>(coherency.stats().refreshed),
        static_cast<unsigned long long>(coherency.stats().invalidated),
        static_cast<unsigned long long>(coherency.stats().not_cached));
  } else {
    std::printf("\nno piggyback on this response\n");
  }

  // A third request shows the RPV list suppressing the repeat piggyback.
  http::Request third;
  third.target = first;
  third.headers.add("host", site.host());
  http::attach_filter(third, filter_policy.filter_for(server_id, {110}));
  std::printf("\nthird request carries the RPV filter:\n  Piggy-filter: %s\n",
              std::string(*third.headers.get("Piggy-filter")).c_str());
  auto third_response = origin.handle(third, {110}, 1);
  util::InternTable scratch;
  std::printf("server piggybacked again? %s\n",
              http::extract_pvolume(third_response, scratch) ? "yes"
                                                             : "no (RPV)");
  return 0;
}
