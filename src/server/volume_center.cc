#include "server/volume_center.h"

#include "trace/record.h"

namespace piggyweb::server {

trace::ContentType LearnedMetaOracle::observe(util::InternId server,
                                             util::InternId resource,
                                             std::uint64_t size,
                                             std::int64_t last_modified) {
  auto& meta = meta_[key(server, resource)];
  ++meta.access_count;
  if (size > 0) meta.size = size;
  if (last_modified > meta.last_modified) meta.last_modified = last_modified;
  // The type depends only on the path, so one scan at first touch
  // matches re-assigning it on every access.
  if (meta.access_count == 1) {
    meta.type = trace::classify_path(paths_->str(resource));
  }
  return meta.type;
}

core::ResourceMeta LearnedMetaOracle::lookup(
    util::InternId server, util::InternId resource) const {
  const auto it = meta_.find(key(server, resource));
  return it == meta_.end() ? core::ResourceMeta{} : it->second;
}

volume::DirectoryVolumes& VolumeCenter::provider_for(
    util::InternId server) {
  auto it = providers_.find(server);
  if (it == providers_.end()) {
    auto provider = std::make_unique<volume::DirectoryVolumes>(config_);
    provider->bind_paths(*paths_);
    it = providers_.emplace(server, std::move(provider)).first;
  }
  return *it->second;
}

core::PiggybackMessage VolumeCenter::observe(
    util::InternId server, util::InternId source, util::InternId path,
    util::TimePoint time, std::uint64_t size, std::int64_t last_modified,
    const core::ProxyFilter& filter) {
  ++stats_.exchanges_observed;

  core::VolumeRequest vr;
  vr.server = server;
  vr.source = source;
  vr.path = path;
  vr.time = time;
  vr.size = size;
  vr.type = meta_.observe(server, path, size, last_modified);
  auto& provider = provider_override_ != nullptr
                       ? *provider_override_
                       : static_cast<core::VolumeProvider&>(
                             provider_for(server));
  const auto& meta =
      meta_override_ != nullptr ? *meta_override_
                                : static_cast<const core::MetaOracle&>(meta_);
  core::PiggybackMessage message;
  provider.on_request_filtered(vr, filter, meta, message);
  if (!message.empty()) {
    ++stats_.piggybacks_injected;
    stats_.elements_injected += message.elements.size();
  }
  return message;
}

VolumeCenterStats VolumeCenter::stats() const {
  auto s = stats_;
  s.servers_tracked = providers_.size();
  return s;
}

}  // namespace piggyweb::server
