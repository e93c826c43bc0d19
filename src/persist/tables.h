// Serializers for piggyweb's durable tables — each a (serialize,
// deserialize) pair over the codec's ByteWriter/ByteReader emitting a
// canonical byte stream: map entries sorted by key, list contents in their
// semantic order (LRU front to back, FIFO oldest first). Canonical bytes
// make "restore then re-serialize" a bit-exact identity, which the
// round-trip property suites rely on.
//
// Tables whose state is reachable through public APIs are handled by the
// free functions here; tables that need private access (PairCounts,
// DirectoryVolumes, ProxyCache, RpvTable, the engine's node array) go
// through persist::StateAccess (state_access.h).
//
// Every deserializer is defensive: counts are bounds-checked against the
// remaining input before any allocation, structural invariants (duplicate
// keys, dangling indices, size mismatches) are rejected with an error
// string, and no input can trip a contract failure or undefined behaviour.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/rpv.h"
#include "persist/codec.h"
#include "util/flat_map.h"
#include "util/intern.h"
#include "util/time.h"
#include "volume/probability.h"

namespace piggyweb::persist {

// Primitive vectors ---------------------------------------------------------

void serialize_u64_vector(std::span<const std::uint64_t> values,
                          ByteWriter& out);
bool deserialize_u64_vector(ByteReader& in, std::vector<std::uint64_t>& values,
                            std::string& error);

// util::InternTable ---------------------------------------------------------
//
// Strings in id order; reloading into an empty table reproduces the exact
// id assignment (the table hands out dense ids in insertion order).

void serialize_intern_table(const util::InternTable& table, ByteWriter& out);
bool deserialize_intern_table(ByteReader& in, util::InternTable& table,
                              std::string& error);

// util::FlatMap -------------------------------------------------------------
//
// Iteration order is unspecified, so the canonical encoding sorts entries
// by key. `write_value(out, value)` / `read_value(in, value, error)`
// encode the mapped type; read_value returns false (with `error` set) to
// reject a malformed value.

template <typename K, typename V, typename WriteValue>
void serialize_flat_map(const util::FlatMap<K, V>& map, ByteWriter& out,
                        WriteValue&& write_value) {
  std::vector<const typename util::FlatMap<K, V>::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& kv : map) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  out.u64(entries.size());
  for (const auto* kv : entries) {
    out.u64(static_cast<std::uint64_t>(kv->first));
    write_value(out, kv->second);
  }
}

template <typename K, typename V, typename ReadValue>
bool deserialize_flat_map(ByteReader& in, util::FlatMap<K, V>& map,
                          ReadValue&& read_value, std::string& error) {
  const auto count = in.u64();
  if (!in.fits(count, 8)) {
    error = "flat map count overruns input";
    return false;
  }
  map.clear();
  map.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto raw = in.u64();
    const auto key = static_cast<K>(raw);
    if (static_cast<std::uint64_t>(key) != raw) {
      error = "flat map key out of range";
      return false;
    }
    const auto [it, inserted] = map.try_emplace(key);
    if (!inserted) {
      error = "duplicate flat map key";
      return false;
    }
    if (!read_value(in, it->second, error)) return false;
  }
  if (!in.ok()) {
    error = "truncated flat map";
    return false;
  }
  return true;
}

// core::RpvList -------------------------------------------------------------
//
// FIFO contents oldest first, no expiry applied. The read side returns raw
// entries; the caller installs them into a list constructed with the
// run's RpvConfig via RpvList::restore_entries.

void serialize_rpv_list(const core::RpvList& list, ByteWriter& out);
bool deserialize_rpv_entries(ByteReader& in,
                             std::vector<core::RpvEntry>& entries,
                             std::string& error);

// volume::ProbabilityVolumeSet ----------------------------------------------
//
// Volumes in volume-id order, so reloading into an empty set reassigns the
// identical dense ids.

void serialize_probability_volume_set(const volume::ProbabilityVolumeSet& set,
                                      ByteWriter& out);
bool deserialize_probability_volume_set(ByteReader& in,
                                        volume::ProbabilityVolumeSet& set,
                                        std::string& error);

// volume::DirectoryVolumes ---------------------------------------------------
//
// Structural image of one directory volume: its identity (server id +
// prefix string — prefix intern ids are instance-local and do not
// persist), the volume id the saved run had assigned, and the six
// partition lists in MRU-first order. Volume ids are opaque (RPV
// suppression compares them only for equality), so a restore may renumber;
// EvalRestore (eval_state.h) translates saved ids in RPV state.

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
