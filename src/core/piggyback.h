// Core protocol value types: volumes, piggyback elements/messages, and the
// volume-provider interface that both volume-construction families
// (directory-based, probability-based — src/volume/) implement.
//
// A piggyback element carries the identifier, size, and Last-Modified time
// of a resource from the same volume as the requested resource (§2.1). A
// piggyback message is a volume id plus a sequence of elements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.h"
#include "util/intern.h"
#include "util/time.h"

namespace piggyweb::core {

struct ProxyFilter;
class MetaOracle;

// Dense per-server volume identifier. The wire format (§2.3) allocates two
// bytes (up to 32767 volumes per server); internally we keep 32 bits and
// let the HTTP layer enforce the wire bound.
using VolumeId = std::uint32_t;
inline constexpr VolumeId kNoVolume = 0xffffffffu;
inline constexpr VolumeId kMaxWireVolumeId = 32767;

struct PiggybackElement {
  util::InternId resource = util::kInvalidIntern;
  std::uint64_t size = 0;
  std::int64_t last_modified = -1;
  // Implication probability p(s|r) when the volume scheme computes one
  // (0 = absent). Rides the wire as an optional fourth element field and
  // feeds server-assisted cache replacement (§4, [24]).
  double probability = 0;
};

struct PiggybackMessage {
  VolumeId volume = kNoVolume;
  std::vector<PiggybackElement> elements;

  bool empty() const { return elements.empty(); }
};

// What the server (or volume center) knows about an incoming request when
// it consults the volume machinery.
struct VolumeRequest {
  util::InternId server = util::kInvalidIntern;
  util::InternId source = util::kInvalidIntern;  // requesting proxy
  util::InternId path = util::kInvalidIntern;    // requested resource
  util::TimePoint time;
  std::uint64_t size = 0;                        // response body size
  trace::ContentType type = trace::ContentType::kOther;
};

// A provider's raw candidate list for one request, before the proxy filter
// trims it. `probs` parallels `resources` for probability-based volumes
// (empty for directory-based ones); candidates are ordered best-first
// (recency for directory volumes, descending implication probability for
// probability volumes).
struct VolumePrediction {
  VolumeId volume = kNoVolume;
  std::vector<util::InternId> resources;
  std::vector<double> probs;

  bool empty() const { return resources.empty(); }
};

// Interface implemented by volume-construction schemes. on_request() both
// observes the access (directory volumes maintain FIFO/move-to-front state
// online) and returns the candidate piggyback contents.
class VolumeProvider {
 public:
  virtual ~VolumeProvider() = default;

  virtual VolumePrediction on_request(const VolumeRequest& request) = 0;

  // Batched form of on_request: fills predictions[i] for requests[i],
  // visiting requests strictly in span order so stateful providers evolve
  // exactly as a per-request loop would. `predictions` is resized to match
  // and its existing elements (and their vector capacity) are reused —
  // callers that keep the output vector across batches amortize the
  // per-prediction allocations away. The default implementation delegates
  // to on_request; stateful providers override it to skip the per-call
  // return-by-value copies.
  virtual void on_request_batch(std::span<const VolumeRequest> requests,
                                std::vector<VolumePrediction>& predictions);

  // Observes the request exactly as on_request does, then writes the
  // piggyback message `filter` lets through into `out` (cleared first; its
  // element capacity is reused). The result always equals
  // apply_filter_into(on_request(request), request, filter, meta, out),
  // which is the default implementation. Overrides offer candidates
  // best-first to a core::MessageFilter and stop once the message is
  // full, without building the capped candidate list.
  virtual void on_request_filtered(const VolumeRequest& request,
                                   const ProxyFilter& filter,
                                   const MetaOracle& meta,
                                   PiggybackMessage& out);

  // Number of volumes currently defined (for stats / wire-id checks).
  virtual std::size_t volume_count() const = 0;

  // Human-readable scheme name for reports.
  virtual const char* scheme_name() const = 0;
};

}  // namespace piggyweb::core
