// Transparent volume center (§1, §5): volume maintenance and piggyback
// generation performed at a router/gateway on the proxy-server path, on
// behalf of servers that were never modified. The center watches
// request/response exchanges stream past, maintains per-server volumes,
// and decides what piggyback to inject into each response. Because it sits
// on the path for several servers at once, one center can serve piggybacks
// for many sites.
#pragma once

#include <memory>

#include "core/filter.h"
#include "core/piggyback.h"
#include "util/flat_map.h"
#include "volume/directory.h"

namespace piggyweb::server {

struct VolumeCenterStats {
  std::uint64_t exchanges_observed = 0;
  std::uint64_t piggybacks_injected = 0;
  std::uint64_t elements_injected = 0;
  std::size_t servers_tracked = 0;
};

class VolumeCenter {
 public:
  VolumeCenter(const volume::DirectoryVolumeConfig& config,
               const util::InternTable& paths)
      : config_(config), paths_(&paths) {}

  // One observed exchange: proxy `request.source` fetched `request.path`
  // from `request.server`, and the proxy's filter rode on the request.
  // `meta` fills the piggyback elements: metadata the caller learns from
  // the traffic (all a router can see, so Last-Modified values of
  // resources that changed since their last observed fetch are stale), or
  // an authoritative oracle when the center is co-located with the origin
  // or fed by it. Returns the piggyback the center injects into the
  // response (possibly empty).
  core::PiggybackMessage observe(const core::VolumeRequest& request,
                                 const core::ProxyFilter& filter,
                                 const core::MetaOracle& meta);

  VolumeCenterStats stats() const;

  // Replace the center's per-server directory volumes with an externally
  // built provider (e.g. offline-trained probability volumes) applied to
  // every server. The provider must outlive the center.
  void set_provider_override(core::VolumeProvider* provider) {
    provider_override_ = provider;
  }

 private:
  volume::DirectoryVolumes& provider_for(util::InternId server);

  volume::DirectoryVolumeConfig config_;
  const util::InternTable* paths_;
  core::VolumeProvider* provider_override_ = nullptr;
  util::FlatMap<util::InternId, std::unique_ptr<volume::DirectoryVolumes>>
      providers_;
  VolumeCenterStats stats_;
};

}  // namespace piggyweb::server
