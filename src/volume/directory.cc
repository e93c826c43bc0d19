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
  const auto part = partition_of(request.type, request.size,
                                 config_.large_size_threshold);
  const auto idx_it = volume.index.find(request.path);
  if (idx_it != volume.index.end()) {
    auto [old_part, node] = idx_it->second;
    node->last_access = request.time;
    if (old_part == part) {
      // Move-to-front within its partition — O(1) splice.
      volume.parts[part].splice(volume.parts[part].begin(),
                                volume.parts[part], node);
    } else {
      // Size/type class changed (e.g. resource grew); migrate partitions.
      volume.parts[part].splice(volume.parts[part].begin(),
                                volume.parts[old_part], node);
      idx_it->second.first = part;
    }
    idx_it->second.second = volume.parts[part].begin();
    return;
  }
  volume.parts[part].push_front({request.path, request.time});
  volume.index.emplace(request.path,
                       std::make_pair(part, volume.parts[part].begin()));
}

void DirectoryVolumes::trim(Volume& volume) {
  while (volume.index.size() > config_.max_volume_elements) {
    // Evict the least recently used element across the logical FIFO: the
    // oldest among the partition tails.
    std::size_t victim_part = kPartitions;
    util::TimePoint oldest{0};
    for (std::size_t p = 0; p < kPartitions; ++p) {
      if (volume.parts[p].empty()) continue;
      const auto t = volume.parts[p].back().last_access;
      if (victim_part == kPartitions || t < oldest) {
        victim_part = p;
        oldest = t;
      }
    }
    PW_ENSURE(victim_part < kPartitions);
    volume.index.erase(volume.parts[victim_part].back().resource);
    volume.parts[victim_part].pop_back();
  }
}

template <typename Visit>
void DirectoryVolumes::for_each_candidate(const Volume& volume,
                                          Visit&& visit) const {
  // Merge the six MRU-ordered partition lists into one recency-ordered
  // sequence (most recent first); on equal last-access times the lower
  // partition goes first.
  std::array<ElementList::const_iterator, kPartitions> cursor;
  std::array<ElementList::const_iterator, kPartitions> end;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    cursor[p] = volume.parts[p].begin();
    end[p] = volume.parts[p].end();
  }
  for (std::size_t visited = 0; visited < config_.max_candidates;
       ++visited) {
    std::size_t best = kPartitions;
    for (std::size_t p = 0; p < kPartitions; ++p) {
      if (cursor[p] == end[p]) continue;
      if (best == kPartitions ||
          cursor[p]->last_access > cursor[best]->last_access) {
        best = p;
      }
    }
    if (best == kPartitions) return;
    const auto resource = cursor[best]->resource;
    ++cursor[best];
    if (!visit(resource)) return;
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
