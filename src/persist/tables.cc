#include "persist/tables.h"

#include <array>
#include <cstdint>
#include <utility>

#include "persist/state_access.h"
#include "util/expect.h"
#include "volume/directory.h"

namespace piggyweb::persist {

// core::RpvList entries -----------------------------------------------------

bool deserialize_rpv_entries(ByteReader& in,
                             std::vector<core::RpvEntry>& entries,
                             std::string& error) {
  const auto count = in.u64();
  if (!in.fits(count, 12)) {
    error = "rpv entry count overruns input";
    return false;
  }
  entries.clear();
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    core::RpvEntry entry;
    entry.volume = in.u32();
    entry.when = util::TimePoint{in.i64()};
    entries.push_back(entry);
  }
  if (!in.ok()) {
    error = "truncated rpv entries";
    return false;
  }
  return true;
}

// volume::DirectoryVolumes images -------------------------------------------

void serialize_directory_volume_images(
    std::span<const DirectoryVolumeImage> images, ByteWriter& out) {
  out.u64(images.size());
  for (const auto& image : images) {
    out.u32(image.server);
    out.str(image.prefix);
    out.u32(image.saved_id);
    for (const auto& part : image.parts) {
      out.u64(part.size());
      for (const auto& element : part) {
        out.u32(element.resource);
        out.i64(element.last_access.value);
      }
    }
  }
}

bool deserialize_directory_volume_images(
    ByteReader& in, std::vector<DirectoryVolumeImage>& images,
    std::string& error) {
  const auto count = in.u64();
  if (!in.fits(count, 16)) {
    error = "directory volume count overruns input";
    return false;
  }
  images.clear();
  images.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    DirectoryVolumeImage image;
    image.server = in.u32();
    image.prefix = std::string(in.str());
    image.saved_id = in.u32();
    for (auto& part : image.parts) {
      const auto element_count = in.u64();
      if (!in.fits(element_count, 12)) {
        error = "directory element count overruns input";
        return false;
      }
      part.reserve(element_count);
      for (std::uint64_t j = 0; j < element_count; ++j) {
        DirectoryElementImage element;
        element.resource = in.u32();
        element.last_access = util::TimePoint{in.i64()};
        part.push_back(element);
      }
    }
    if (!in.ok()) {
      error = "truncated directory volumes";
      return false;
    }
    images.push_back(std::move(image));
  }
  return true;
}

// StateAccess: volume::DirectoryVolumes -------------------------------------

std::vector<DirectoryVolumeImage> StateAccess::export_directory_volumes(
    const volume::DirectoryVolumes& provider) {
  using volume::DirectoryVolumes;
  static_assert(DirectoryVolumes::kPartitions == kDirectoryPartitions);
  std::vector<DirectoryVolumeImage> images(provider.volumes_.size());
  for (const auto& [key, local] : provider.ids_) {
    auto& image = images[local];
    image.server = static_cast<util::InternId>(key >> 32);
    image.prefix = std::string(
        provider.prefixes_.str(static_cast<util::InternId>(key & 0xffffffffu)));
    image.saved_id =
        provider.config_.id_offset + provider.config_.id_stride * local;
    // Each image list is the volume's one list split by partition.
    const auto& volume = provider.volumes_[local];
    for (auto n = volume.head; n != DirectoryVolumes::kNil;
         n = volume.nodes[n].next) {
      const auto& node = volume.nodes[n];
      image.parts[node.part].push_back({node.resource, node.last_access});
    }
  }
  return images;
}

bool StateAccess::import_directory_volumes(
    volume::DirectoryVolumes& provider,
    std::span<const DirectoryVolumeImage* const> images,
    std::vector<core::VolumeId>& assigned_ids, std::string& error) {
  using volume::DirectoryVolumes;
  PW_EXPECT(provider.volumes_.empty());
  assigned_ids.reserve(assigned_ids.size() + images.size());
  provider.volumes_.reserve(images.size());
  for (const auto* image_ptr : images) {
    PW_EXPECT(image_ptr != nullptr);
    const auto& image = *image_ptr;
    const auto prefix = provider.prefixes_.intern(image.prefix);
    const auto key = DirectoryVolumes::volume_key(image.server, prefix);
    const auto local = static_cast<core::VolumeId>(provider.volumes_.size());
    if (!provider.ids_.try_emplace(key, local).second) {
      error = "duplicate (server, prefix) directory volume";
      return false;
    }
    provider.volumes_.emplace_back();
    auto& volume = provider.volumes_.back();
    // Merge the six lists into the volume's one list: last access
    // descending, and on equal times the lower partition first.
    const auto& parts = image.parts;
    std::array<std::size_t, kDirectoryPartitions> cursor{};
    for (;;) {
      std::size_t best = kDirectoryPartitions;
      for (std::size_t p = 0; p < kDirectoryPartitions; ++p) {
        if (cursor[p] == parts[p].size()) continue;
        if (best == kDirectoryPartitions ||
            parts[p][cursor[p]].last_access >
                parts[best][cursor[best]].last_access) {
          best = p;
        }
      }
      if (best == kDirectoryPartitions) break;
      const auto& element = parts[best][cursor[best]++];
      if (cursor[best] < parts[best].size() &&
          parts[best][cursor[best]].last_access > element.last_access) {
        error = "directory partition not in last-access order";
        return false;
      }
      const auto node = static_cast<std::uint32_t>(volume.nodes.size());
      if (!volume.index.emplace(element.resource, node).second) {
        error = "duplicate resource in directory volume";
        return false;
      }
      volume.nodes.push_back({element.last_access, element.resource,
                              DirectoryVolumes::kNil, DirectoryVolumes::kNil,
                              static_cast<std::uint32_t>(best)});
      DirectoryVolumes::link_before(volume, node, DirectoryVolumes::kNil);
    }
    assigned_ids.push_back(provider.config_.id_offset +
                           provider.config_.id_stride * local);
  }
  return true;
}

}  // namespace piggyweb::persist
