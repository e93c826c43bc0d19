#include "volume/directory.h"

#include <algorithm>

#include "core/filter.h"
#include "util/expect.h"
#include "util/strings.h"

namespace piggyweb::volume {

DirectoryVolumes::DirectoryVolumes(const DirectoryVolumeConfig& config)
    : config_(config) {
  PW_EXPECT(config.level >= 0);
  PW_EXPECT(config.max_volume_elements > 0);
  // Node indices are u32 and a volume holds at most one node over its
  // bound.
  PW_EXPECT(config.max_volume_elements < kNil);
  PW_EXPECT(config.id_stride >= 1);
  PW_EXPECT(config.id_offset < config.id_stride);
}

std::size_t DirectoryVolumes::partition_of(trace::ContentType type,
                                           std::uint64_t size,
                                           std::uint64_t large_threshold) {
  const auto type_idx = static_cast<std::size_t>(type);  // 0..2
  const std::size_t size_idx = size >= large_threshold ? 1 : 0;
  return type_idx * 2 + size_idx;
}

util::InternId DirectoryVolumes::prefix_of(util::InternId path) {
  if (path >= prefix_ids_.size()) {
    prefix_ids_.resize(static_cast<std::size_t>(path) + 1,
                       util::kInvalidIntern);
  }
  auto& cached = prefix_ids_[path];
  if (cached == util::kInvalidIntern) {
    cached = prefixes_.intern(
        util::directory_prefix(path_str(path), config_.level));
  }
  return cached;
}

core::VolumeId DirectoryVolumes::observe(const core::VolumeRequest& request) {
  PW_EXPECT(live_paths_ != nullptr || !fixed_paths_.empty());
  const auto prefix = prefix_of(request.path);
  const auto key = volume_key(request.server, prefix);

  // ids_ holds the dense local index; the public id applies the
  // offset/stride numbering from the config.
  auto [it, inserted] =
      ids_.try_emplace(key, static_cast<core::VolumeId>(volumes_.size()));
  if (inserted) volumes_.emplace_back();
  Volume& volume = volumes_[it->second];

  touch(volume, request);
  trim(volume);
  return it->second;
}

void DirectoryVolumes::predict_into(const core::VolumeRequest& request,
                                    core::VolumePrediction& out) {
  const auto local = observe(request);
  out.volume = public_id(local);
  collect(volumes_[local], out.resources);
  out.probs.clear();
}

core::VolumePrediction DirectoryVolumes::on_request(
    const core::VolumeRequest& request) {
  core::VolumePrediction prediction;
  predict_into(request, prediction);
  return prediction;
}

void DirectoryVolumes::on_request_batch(
    std::span<const core::VolumeRequest> requests,
    std::vector<core::VolumePrediction>& predictions) {
  predictions.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    predict_into(requests[i], predictions[i]);
  }
}

void DirectoryVolumes::touch(Volume& volume,
                             const core::VolumeRequest& request) {
  const auto part = static_cast<std::uint32_t>(partition_of(
      request.type, request.size, config_.large_size_threshold));
  const auto [it, inserted] = volume.index.try_emplace(request.path, kNil);
  if (!inserted) {
    unlink(volume, it->second);
  } else if (volume.free != kNil) {
    it->second = volume.free;
    volume.free = volume.nodes[volume.free].next;
  } else {
    it->second = static_cast<std::uint32_t>(volume.nodes.size());
    volume.nodes.emplace_back();
  }
  const auto node = it->second;
  volume.nodes[node].resource = request.path;
  volume.nodes[node].last_access = request.time;
  volume.nodes[node].part = part;
  // Skip the nodes that stay ahead: accessed later, or in the same second
  // from a lower partition.
  auto next = volume.head;
  while (next != kNil) {
    const auto& other = volume.nodes[next];
    if (other.last_access < request.time ||
        (other.last_access == request.time && other.part >= part)) {
      break;
    }
    next = other.next;
  }
  link_before(volume, node, next);
}

void DirectoryVolumes::trim(Volume& volume) {
  while (volume.index.size() > config_.max_volume_elements) {
    // The oldest second's nodes end the list, partitions ascending, so
    // walking back from the tail the victim is the first node of the
    // lowest partition met before the second changes.
    auto victim = volume.tail;
    PW_ENSURE(victim != kNil);
    const auto oldest = volume.nodes[victim].last_access;
    for (auto n = volume.nodes[victim].prev;
         n != kNil && volume.nodes[n].last_access == oldest &&
         volume.nodes[victim].part != 0;
         n = volume.nodes[n].prev) {
      if (volume.nodes[n].part < volume.nodes[victim].part) victim = n;
    }
    volume.index.erase(volume.nodes[victim].resource);
    unlink(volume, victim);
    volume.nodes[victim].next = volume.free;
    volume.free = victim;
  }
}

void DirectoryVolumes::unlink(Volume& volume, std::uint32_t node) {
  const auto prev = volume.nodes[node].prev;
  const auto next = volume.nodes[node].next;
  (prev == kNil ? volume.head : volume.nodes[prev].next) = next;
  (next == kNil ? volume.tail : volume.nodes[next].prev) = prev;
}

void DirectoryVolumes::link_before(Volume& volume, std::uint32_t node,
                                   std::uint32_t next) {
  const auto prev = next == kNil ? volume.tail : volume.nodes[next].prev;
  volume.nodes[node].prev = prev;
  volume.nodes[node].next = next;
  (prev == kNil ? volume.head : volume.nodes[prev].next) = node;
  (next == kNil ? volume.tail : volume.nodes[next].prev) = node;
}

template <typename Visit>
void DirectoryVolumes::for_each_candidate(const Volume& volume,
                                          Visit&& visit) const {
  auto node = volume.head;
  for (std::size_t visited = 0;
       node != kNil && visited < config_.max_candidates; ++visited) {
    const auto& element = volume.nodes[node];
    if (!visit(element.resource)) return;
    node = element.next;
  }
}

void DirectoryVolumes::collect(const Volume& volume,
                               std::vector<util::InternId>& out) const {
  out.clear();
  out.reserve(std::min(volume.index.size(), config_.max_candidates));
  for_each_candidate(volume, [&out](util::InternId resource) {
    out.push_back(resource);
    return true;
  });
}

void DirectoryVolumes::on_request_filtered(const core::VolumeRequest& request,
                                           const core::ProxyFilter& filter,
                                           const core::MetaOracle& meta,
                                           core::PiggybackMessage& out) {
  core::MessageFilter message(request, filter, meta, out);
  const auto local = observe(request);
  if (message.open(public_id(local))) {
    for_each_candidate(volumes_[local], [&message](util::InternId resource) {
      return message.offer(resource, std::nullopt);
    });
  }
  message.close();
}

core::VolumeId DirectoryVolumes::peek_volume(util::InternId server,
                                             std::string_view path) const {
  const auto prefix =
      prefixes_.find(util::directory_prefix(path, config_.level));
  if (!prefix.has_value()) return core::kNoVolume;
  const auto it = ids_.find(volume_key(server, *prefix));
  if (it == ids_.end()) return core::kNoVolume;
  return public_id(it->second);
}

std::size_t DirectoryVolumes::volume_size(core::VolumeId id) const {
  PW_EXPECT(id >= config_.id_offset);
  PW_EXPECT((id - config_.id_offset) % config_.id_stride == 0);
  const auto local = (id - config_.id_offset) / config_.id_stride;
  PW_EXPECT(local < volumes_.size());
  return volumes_[local].index.size();
}

}  // namespace piggyweb::volume
