#include "server/origin.h"

#include <algorithm>

#include "http/date.h"
#include "http/piggy_headers.h"
#include "util/strings.h"

namespace piggyweb::server {
namespace {

// Synthesize a deterministic body of the right length (the simulator does
// not store real content).
std::string body_of(std::uint64_t size) {
  static constexpr std::string_view kPattern =
      "piggyweb synthetic resource body. ";
  std::string body;
  body.reserve(size);
  while (body.size() < size) {
    body.append(kPattern.substr(
        0, std::min<std::size_t>(kPattern.size(), size - body.size())));
  }
  return body;
}

}  // namespace

OriginServer::OriginServer(const trace::SiteModel& site,
                           core::VolumeProvider& volumes,
                           util::InternTable& paths)
    : site_(site),
      volumes_(volumes),
      paths_(paths),
      server_id_(paths.intern(site.host())),
      meta_(site, paths) {}

http::Response OriginServer::handle(const http::Request& request,
                                    util::TimePoint now,
                                    util::InternId source) {
  ++stats_.requests;
  meta_.set_now(now);

  http::Response response;
  const auto path = util::normalize_path(request.target);
  const auto idx = site_.index_of(path);
  if (idx >= site_.size()) {
    ++stats_.not_found;
    response.status = 404;
    response.reason = std::string(http::reason_for_status(404));
    response.headers.set("Content-Length", "0");
    return response;
  }

  const auto& resource = site_.resource(idx);
  const auto last_modified = site_.last_modified(idx, now);

  // If-Modified-Since: validate rather than re-send when the proxy's copy
  // is current ("if the proxy-specified Last-Modified time is greater or
  // equal to the Last-Modified time at the server", §2.1).
  bool validated = false;
  if (const auto ims = request.headers.get("If-Modified-Since")) {
    std::int64_t since = 0;
    if (http::parse_http_date(*ims, since) &&
        since - kWireEpoch >= last_modified.value) {
      validated = true;
    }
  }

  if (validated) {
    ++stats_.not_modified;
    response.status = 304;
    response.reason = std::string(http::reason_for_status(304));
  } else {
    ++stats_.ok_responses;
    response.status = 200;
    response.reason = std::string(http::reason_for_status(200));
    response.body = body_of(resource.size);
    response.headers.set("Content-Length",
                         std::to_string(response.body.size()));
  }
  response.headers.set(
      "Last-Modified",
      http::format_http_date(last_modified.value + kWireEpoch));

  // §5 feedback: proxies report cache hits attributable to piggybacked
  // volumes; aggregate them (still no per-proxy state).
  if (const auto hits = http::extract_hits(request)) {
    feedback_.ingest(*hits);
  }

  // PCV: validate the proxy's batched cache entries in this same
  // response ([10]); verdicts ride a plain header on 200 and 304 alike.
  if (const auto items = http::extract_validate(request, paths_)) {
    core::ValidationReply reply;
    for (const auto& item : items.value()) {
      const auto item_idx = meta_.resolve(item.resource);
      if (item_idx >= site_.size()) continue;  // unknown: no verdict
      const auto current =
          site_.last_modified(item_idx, now).value + kWireEpoch;
      if (item.last_modified >= current) {
        reply.fresh.push_back(item.resource);
      } else {
        reply.stale.push_back({item.resource, current});
      }
    }
    http::attach_validate_reply(response, reply, paths_);
    stats_.validations_piggybacked += items->size();
  }

  // Piggyback construction: only for proxies that sent a filter, and only
  // when the filter leaves something to say.
  const auto path_id = paths_.intern(path);
  meta_.note_access(path_id);
  const auto filter = http::extract_filter(request);
  if (filter && filter->enabled) {
    core::VolumeRequest vr;
    vr.server = server_id_;
    vr.source = source;
    vr.path = path_id;
    vr.time = now;
    vr.size = resource.size;
    vr.type = resource.type;
    auto prediction = volumes_.on_request(vr);
    prediction.volume = prediction.volume == core::kNoVolume
                            ? core::kNoVolume
                            : wire_volume_id(prediction.volume);
    auto message = core::apply_filter(prediction, vr, *filter, meta_);
    for (auto& element : message.elements) {
      element.last_modified += kWireEpoch;
    }
    if (!message.empty()) {
      if (response.status == 304) {
        // A 304 has no body to chunk; the piggyback rides as a plain
        // response header instead of a trailer.
        response.headers.set(http::kPVolumeHeader,
                             http::serialize_pvolume(message, paths_));
      } else {
        http::attach_pvolume(response, message, paths_);
      }
      ++stats_.piggybacks_sent;
      stats_.piggyback_elements += message.elements.size();
    }
  }
  return response;
}

}  // namespace piggyweb::server
