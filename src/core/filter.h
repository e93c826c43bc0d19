// Proxy filters (§2.2): the request-side knob that controls the frequency
// and contents of server piggyback messages without per-proxy server state.
//
// A filter travels in the `Piggy-filter` request header (grammar in
// src/http/piggy_headers.*). Applying a filter to a provider's candidate
// list is a pure function implemented here so the simulated server, the
// transparent volume center, and the HTTP demo all share it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/piggyback.h"

namespace piggyweb::core {

struct ProxyFilter {
  // Piggybacking disabled entirely for this request (frequency control may
  // randomly or periodically clear the enable bit, §2.2).
  bool enabled = true;

  // Maximum number of piggyback elements ("maxpiggy=10").
  std::uint32_t max_elements = 0xffffffffu;

  // Recently piggybacked volumes: the server must not piggyback volumes in
  // this list ("rpv=\"3,4\"").
  std::vector<VolumeId> rpv;

  // Probability threshold: elements must co-occur with the requested
  // resource with probability >= this ("pt=0.2"). Ignored by providers
  // that don't compute probabilities.
  std::optional<double> probability_threshold;

  // Content limits: omit resources larger than max_size bytes and content
  // types the proxy doesn't cache (e.g. wireless proxies omit images).
  std::optional<std::uint64_t> max_size;
  bool allow_html = true;
  bool allow_image = true;
  bool allow_other = true;

  // Minimum access count: omit resources accessed fewer than this many
  // times (the "access filter" of §3.2.2's evaluation).
  std::uint32_t min_access_count = 0;

  bool allows_type(trace::ContentType t) const {
    switch (t) {
      case trace::ContentType::kHtml:
        return allow_html;
      case trace::ContentType::kImage:
        return allow_image;
      case trace::ContentType::kOther:
        return allow_other;
    }
    return true;
  }
};

// Metadata oracle the filter consults per candidate resource. The real
// server knows these from its file system and access counters; in trace
// evaluation they come from observed log state.
struct ResourceMeta {
  std::uint64_t size = 0;
  std::int64_t last_modified = -1;
  trace::ContentType type = trace::ContentType::kOther;
  std::uint64_t access_count = 0;
};

class MetaOracle {
 public:
  virtual ~MetaOracle() = default;
  virtual ResourceMeta lookup(util::InternId server,
                              util::InternId resource) const = 0;
};

// Builds one piggyback message from candidates offered best-first. It is
// the one home of the filter's rules:
//   * open(): the message is suppressed whole if !filter.enabled, there is
//     no volume, the volume is in the RPV, or max_elements is 0;
//   * offer(): the requested resource itself is never echoed back, and the
//     probability / size / type / access-count limits apply per candidate;
//     the message ends once it holds max_elements elements;
//   * close(): a message left without elements names no volume.
// apply_filter_into drives it over a VolumePrediction; providers drive it
// from VolumeProvider::on_request_filtered without building one.
class MessageFilter {
 public:
  // Clears `out`, which receives the message; all four arguments must
  // outlive the filter.
  MessageFilter(const VolumeRequest& request, const ProxyFilter& filter,
                const MetaOracle& meta, PiggybackMessage& out)
      : request_(&request), filter_(&filter), meta_(&meta), out_(&out) {
    out.volume = kNoVolume;
    out.elements.clear();
  }

  // Starts the message for `volume`. False when the filter suppresses the
  // whole message: offer nothing; `out` stays empty.
  bool open(VolumeId volume) {
    if (!filter_->enabled || volume == kNoVolume ||
        filter_->max_elements == 0 ||
        std::find(filter_->rpv.begin(), filter_->rpv.end(), volume) !=
            filter_->rpv.end()) {
      return false;
    }
    volume_ = volume;
    return true;
  }

  // Applies the per-candidate rules to the next-best candidate.
  // `probability` is absent for providers that compute none, which also
  // exempts the candidate from the probability threshold. Returns false
  // once the message is full: offer nothing more.
  bool offer(util::InternId resource, std::optional<double> probability) {
    if (resource == request_->path) return true;
    if (probability && filter_->probability_threshold &&
        *probability < *filter_->probability_threshold) {
      return true;
    }
    const auto info = meta_->lookup(request_->server, resource);
    if (filter_->max_size && info.size > *filter_->max_size) return true;
    if (!filter_->allows_type(info.type)) return true;
    if (info.access_count < filter_->min_access_count) return true;
    out_->elements.push_back({resource, info.size, info.last_modified,
                              probability.value_or(0.0)});
    return out_->elements.size() < filter_->max_elements;
  }

  // Ends the message: one without elements names no volume.
  void close() {
    out_->volume = out_->elements.empty() ? kNoVolume : volume_;
  }

 private:
  const VolumeRequest* request_;
  const ProxyFilter* filter_;
  const MetaOracle* meta_;
  PiggybackMessage* out_;
  VolumeId volume_ = kNoVolume;
};

// Apply `filter` to a provider's prediction for `request`, producing the
// piggyback message the server would actually append (possibly empty): the
// prediction's candidates, in order, through a MessageFilter. Candidates
// carry probabilities only when `probs` parallels `resources`.
PiggybackMessage apply_filter(const VolumePrediction& prediction,
                              const VolumeRequest& request,
                              const ProxyFilter& filter,
                              const MetaOracle& meta);

// Allocation-reusing form: clears and refills `out` (its element vector's
// capacity survives), so a caller looping over millions of requests keeps
// one message buffer instead of constructing one per request. apply_filter
// is a thin wrapper over this.
void apply_filter_into(const VolumePrediction& prediction,
                       const VolumeRequest& request, const ProxyFilter& filter,
                       const MetaOracle& meta, PiggybackMessage& out);

}  // namespace piggyweb::core
