// Private-state bridge for the snapshot layer.
//
// DirectoryVolumes keeps its lists and index behind private members;
// rather than widen its public API with persistence-only accessors, it
// befriends this single struct. StateAccess member functions (defined in
// tables.cc) are the only code outside the provider's own translation unit
// that may touch its internals, which keeps the blast radius of a
// representation change easy to audit: grep for StateAccess.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "persist/tables.h"

namespace piggyweb::volume {
class DirectoryVolumes;
}  // namespace piggyweb::volume

namespace piggyweb::persist {

struct StateAccess {
  // volume::DirectoryVolumes — full structural export/import. Import
  // installs `images` in order into an empty provider (the i-th image
  // becomes local volume i, public id = offset + stride * i) and appends
  // the assigned public ids, parallel to `images`, to `assigned_ids`.
  // Pointers, because a shard restore picks a non-contiguous subset of a
  // snapshot's images. On failure the provider is partially filled and
  // must be discarded.
  static std::vector<DirectoryVolumeImage> export_directory_volumes(
      const volume::DirectoryVolumes& provider);
  static bool import_directory_volumes(
      volume::DirectoryVolumes& provider,
      std::span<const DirectoryVolumeImage* const> images,
      std::vector<core::VolumeId>& assigned_ids, std::string& error);
};

}  // namespace piggyweb::persist
