// Transparent volume center (§1, §5): volume maintenance and piggyback
// generation performed at a router/gateway on the proxy-server path, on
// behalf of servers that were never modified. The center watches
// request/response exchanges stream past, maintains per-server volumes and
// learned resource metadata, and decides what piggyback to inject into
// each response. Because it sits on the path for several servers at once,
// one center can serve piggybacks for many sites.
#pragma once

#include <memory>
#include <unordered_map>

#include "core/filter.h"
#include "core/piggyback.h"
#include "volume/directory.h"

namespace piggyweb::server {

// Metadata learned purely from observed traffic (a router cannot stat the
// server's file system).
class LearnedMetaOracle final : public core::MetaOracle {
 public:
  explicit LearnedMetaOracle(const util::InternTable& paths)
      : paths_(&paths) {}

  // Folds one observed response into the resource's metadata and
  // returns its content type, classified from the path at first touch.
  trace::ContentType observe(util::InternId server, util::InternId resource,
                             std::uint64_t size, std::int64_t last_modified);

  core::ResourceMeta lookup(util::InternId server,
                            util::InternId resource) const override;

 private:
  static std::uint64_t key(util::InternId server, util::InternId resource) {
    return (static_cast<std::uint64_t>(server) << 32) | resource;
  }
  const util::InternTable* paths_;
  std::unordered_map<std::uint64_t, core::ResourceMeta> meta_;
};

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
      : config_(config), paths_(&paths), meta_(paths) {}

  // One observed exchange: proxy `source` fetched `path` from `server` at
  // `time`; the response had `size` body bytes and `last_modified`. The
  // proxy's filter rode on the request. Returns the piggyback the center
  // injects into the response (possibly empty).
  core::PiggybackMessage observe(util::InternId server,
                                 util::InternId source,
                                 util::InternId path, util::TimePoint time,
                                 std::uint64_t size,
                                 std::int64_t last_modified,
                                 const core::ProxyFilter& filter);

  VolumeCenterStats stats() const;
  const LearnedMetaOracle& meta() const { return meta_; }

  // By default the center fills piggyback elements from traffic-learned
  // metadata — all a router can see, which means Last-Modified values for
  // resources that changed since their last observed fetch are stale. A
  // deployment co-located with the origin (or fed by it) can supply an
  // authoritative oracle instead; the learned table keeps being maintained
  // either way.
  void set_meta_override(const core::MetaOracle* meta) {
    meta_override_ = meta;
  }

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
  LearnedMetaOracle meta_;
  const core::MetaOracle* meta_override_ = nullptr;
  core::VolumeProvider* provider_override_ = nullptr;
  std::unordered_map<util::InternId, std::unique_ptr<volume::DirectoryVolumes>>
      providers_;
  VolumeCenterStats stats_;
};

}  // namespace piggyweb::server
