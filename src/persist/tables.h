// Serializers for the tables an evaluation snapshot (eval_state.h) is
// built from — each a (serialize, deserialize) pair over the codec's
// ByteWriter/ByteReader emitting a canonical byte stream: list contents
// in their semantic order (FIFO oldest first, partitions MRU first).
// Canonical bytes make "restore then re-serialize" a bit-exact identity,
// which the round-trip property suites rely on.
//
// DirectoryVolumes keeps its lists behind private members, so its
// export/import goes through persist::StateAccess (state_access.h).
//
// Every deserializer is defensive: counts are bounds-checked against the
// remaining input before any allocation, truncation is rejected with an
// error string, and no input can trip a contract failure or undefined
// behaviour.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/rpv.h"
#include "persist/codec.h"
#include "util/intern.h"
#include "util/time.h"

namespace piggyweb::persist {

// core::RpvList entries ------------------------------------------------------
//
// FIFO contents oldest first, no expiry applied: a u64 count, then per
// entry the volume id (u32) and the time it was noted (i64). The caller
// installs the raw entries into a list constructed with the run's
// RpvConfig via RpvList::restore_entries.

bool deserialize_rpv_entries(ByteReader& in,
                             std::vector<core::RpvEntry>& entries,
                             std::string& error);

// volume::DirectoryVolumes ---------------------------------------------------
//
// Structural image of one directory volume: its identity (server id +
// prefix string — prefix intern ids are instance-local and do not
// persist), the volume id the saved run had assigned, and the six
// partition lists in MRU-first order: the volume's one list split by
// partition, so each is in non-increasing last-access order and import
// merges them back by last access, the lower partition first on a tie.
// Volume ids are opaque (RPV suppression compares them only for
// equality), so a restore may renumber; EvalRestore (eval_state.h)
// translates saved ids in RPV state.

inline constexpr std::size_t kDirectoryPartitions = 6;

struct DirectoryElementImage {
  util::InternId resource = util::kInvalidIntern;
  util::TimePoint last_access{};

  bool operator==(const DirectoryElementImage&) const = default;
};

struct DirectoryVolumeImage {
  util::InternId server = util::kInvalidIntern;
  std::string prefix;
  core::VolumeId saved_id = core::kNoVolume;
  std::array<std::vector<DirectoryElementImage>, kDirectoryPartitions> parts;

  bool operator==(const DirectoryVolumeImage&) const = default;
};

void serialize_directory_volume_images(
    std::span<const DirectoryVolumeImage> images, ByteWriter& out);
bool deserialize_directory_volume_images(
    ByteReader& in, std::vector<DirectoryVolumeImage>& images,
    std::string& error);

}  // namespace piggyweb::persist
