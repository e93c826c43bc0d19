#include "proxy/filter_policy.h"

namespace piggyweb::proxy {

core::ProxyFilter FilterPolicy::filter_for(util::InternId server,
                                           util::TimePoint now) {
  core::ProxyFilter filter = config_.base;
  if (config_.min_piggyback_interval > 0) {
    const auto it = last_piggyback_.find(server);
    if (it != last_piggyback_.end() &&
        now - it->second < config_.min_piggyback_interval) {
      filter.enabled = false;
      return filter;
    }
  }
  if (config_.use_rpv) {
    filter.rpv = rpv_.live(server, now);
  }
  return filter;
}

void FilterPolicy::on_piggyback(util::InternId server, core::VolumeId volume,
                                util::TimePoint now) {
  if (config_.use_rpv) rpv_.note(server, volume, now);
  if (config_.min_piggyback_interval > 0) last_piggyback_[server] = now;
}

}  // namespace piggyweb::proxy
