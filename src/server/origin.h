// Simulated origin server speaking the piggybacking protocol (§2.1).
//
// Handles GET / If-Modified-Since exactly as the paper's exchange
// prescribes, keeps no per-proxy state whatsoever, and — when the request
// carries a Piggy-filter — consults its volume provider, applies the
// filter, and appends the P-volume trailer to a chunked response.
#pragma once

#include <cstdint>

#include "core/feedback.h"
#include "core/filter.h"
#include "core/piggyback.h"
#include "http/message.h"
#include "server/meta.h"
#include "trace/synthetic.h"
#include "util/intern.h"

namespace piggyweb::server {

struct OriginStats {
  std::uint64_t requests = 0;
  std::uint64_t ok_responses = 0;
  std::uint64_t not_modified = 0;
  std::uint64_t not_found = 0;
  std::uint64_t piggybacks_sent = 0;
  std::uint64_t piggyback_elements = 0;
  std::uint64_t validations_piggybacked = 0;  // PCV items answered
};

class OriginServer {
 public:
  // The path table is shared with the volume provider and proxies so
  // resource ids agree across the whole simulation. `source_of` names the
  // peer for volume-state purposes (a real server would use the client IP).
  OriginServer(const trace::SiteModel& site, core::VolumeProvider& volumes,
               util::InternTable& paths);

  // Serve one request arriving at simulated time `now` from `source`.
  http::Response handle(const http::Request& request, util::TimePoint now,
                        util::InternId source);

  const OriginStats& stats() const { return stats_; }

  // Aggregated §5 proxy feedback (`Piggy-hits` headers): how many cache
  // hits each volume's piggybacks produced, across all proxies.
  const core::FeedbackCollector& feedback() const { return feedback_; }

  // Map an internal volume id onto the 2-byte wire space. Ids beyond the
  // wire bound wrap; a wire-id collision only risks an over-eager RPV
  // suppression, never incorrect data.
  static core::VolumeId wire_volume_id(core::VolumeId internal) {
    return internal % (core::kMaxWireVolumeId + 1);
  }

  // Simulation time 0 maps to this Unix time on the wire (Sun, 01 Feb
  // 1998 00:00:00 GMT — the paper's era), applied consistently to
  // Last-Modified headers, If-Modified-Since parsing, and piggyback
  // element timestamps.
  static constexpr std::int64_t kWireEpoch = 886'291'200;

 private:
  const trace::SiteModel& site_;
  core::VolumeProvider& volumes_;
  util::InternTable& paths_;
  util::InternId server_id_;
  SiteMetaOracle meta_;
  core::FeedbackCollector feedback_;
  OriginStats stats_;
};

}  // namespace piggyweb::server
