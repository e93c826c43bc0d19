#include "server/volume_center.h"

namespace piggyweb::server {

volume::DirectoryVolumes& VolumeCenter::provider_for(
    util::InternId server) {
  const auto [it, inserted] = providers_.try_emplace(server);
  if (inserted) {
    it->second = std::make_unique<volume::DirectoryVolumes>(config_);
    it->second->bind_paths(*paths_);
  }
  return *it->second;
}

core::PiggybackMessage VolumeCenter::observe(
    const core::VolumeRequest& request, const core::ProxyFilter& filter,
    const core::MetaOracle& meta) {
  ++stats_.exchanges_observed;
  auto& provider = provider_override_ != nullptr
                       ? *provider_override_
                       : static_cast<core::VolumeProvider&>(
                             provider_for(request.server));
  core::PiggybackMessage message;
  provider.on_request_filtered(request, filter, meta, message);
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
