// Proxy-side filter construction: combines static preferences (maxpiggy,
// size/type limits, probability threshold) with frequency control (§2.2's
// enable bit: "disabling piggybacks from servers which have sent
// piggybacks within the last minute") and the per-server RPV list into
// the ProxyFilter that rides each request.
#pragma once

#include "core/filter.h"
#include "core/rpv.h"
#include "util/flat_map.h"
#include "util/intern.h"
#include "util/time.h"

namespace piggyweb::proxy {

struct FilterPolicyConfig {
  core::ProxyFilter base;        // static preferences
  core::RpvConfig rpv;           // per-server RPV list bounds
  bool use_rpv = true;           // include the RPV list in filters
  // Frequency control: disable piggybacks from a server that sent one
  // less than this many seconds ago (0 = always enabled).
  util::Seconds min_piggyback_interval = 0;
};

class FilterPolicy {
 public:
  explicit FilterPolicy(const FilterPolicyConfig& config)
      : config_(config), rpv_(config.rpv) {}

  // Filter for a request to `server` at `now`.
  core::ProxyFilter filter_for(util::InternId server, util::TimePoint now);

  // The response carried a piggyback for `volume`: remember it so future
  // filters suppress that volume, and restart the server's frequency
  // control interval. Only observed piggybacks arm the interval, so a
  // burst of suppressed requests cannot keep a server suppressed.
  void on_piggyback(util::InternId server, core::VolumeId volume,
                    util::TimePoint now);

  core::RpvTable& rpv() { return rpv_; }
  const core::RpvTable& rpv() const { return rpv_; }

 private:
  FilterPolicyConfig config_;
  core::RpvTable rpv_;
  // Last piggyback per server; kept only under frequency control.
  util::FlatMap<util::InternId, util::TimePoint> last_piggyback_;
};

}  // namespace piggyweb::proxy
