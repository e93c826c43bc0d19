#include "persist/tables.h"

#include <iterator>
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
    const auto& volume = provider.volumes_[local];
    for (std::size_t p = 0; p < kDirectoryPartitions; ++p) {
      image.parts[p].reserve(volume.parts[p].size());
      for (const auto& element : volume.parts[p]) {
        image.parts[p].push_back({element.resource, element.last_access});
      }
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
    for (std::size_t p = 0; p < kDirectoryPartitions; ++p) {
      for (const auto& element : image.parts[p]) {
        volume.parts[p].push_back({element.resource, element.last_access});
        const auto node = std::prev(volume.parts[p].end());
        if (!volume.index.emplace(element.resource, std::make_pair(p, node))
                 .second) {
          error = "duplicate resource in directory volume";
          return false;
        }
      }
    }
    assigned_ids.push_back(provider.config_.id_offset +
                           provider.config_.id_stride * local);
  }
  return true;
}

}  // namespace piggyweb::persist
