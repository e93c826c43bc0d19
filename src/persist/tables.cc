#include "persist/tables.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "persist/state_access.h"
#include "proxy/cache.h"
#include "util/expect.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"

namespace piggyweb::persist {

// Primitive vectors ---------------------------------------------------------

void serialize_u64_vector(std::span<const std::uint64_t> values,
                          ByteWriter& out) {
  out.u64(values.size());
  for (const auto v : values) out.u64(v);
}

bool deserialize_u64_vector(ByteReader& in, std::vector<std::uint64_t>& values,
                            std::string& error) {
  const auto count = in.u64();
  if (!in.fits(count, 8)) {
    error = "u64 vector count overruns input";
    return false;
  }
  values.clear();
  values.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(in.u64());
  if (!in.ok()) {
    error = "truncated u64 vector";
    return false;
  }
  return true;
}

// util::InternTable ---------------------------------------------------------

void serialize_intern_table(const util::InternTable& table, ByteWriter& out) {
  out.u64(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    out.str(table.str(static_cast<util::InternId>(i)));
  }
}

bool deserialize_intern_table(ByteReader& in, util::InternTable& table,
                              std::string& error) {
  PW_EXPECT(table.empty());
  const auto count = in.u64();
  if (!in.fits(count, 4)) {
    error = "intern table count overruns input";
    return false;
  }
  table.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto s = in.str();
    if (!in.ok()) {
      error = "truncated intern table";
      return false;
    }
    if (table.intern(s) != static_cast<util::InternId>(i)) {
      error = "duplicate string in intern table";
      return false;
    }
  }
  return true;
}

// core::RpvList -------------------------------------------------------------

void serialize_rpv_list(const core::RpvList& list, ByteWriter& out) {
  const auto entries = list.entries();
  out.u64(entries.size());
  for (const auto& entry : entries) {
    out.u32(entry.volume);
    out.i64(entry.when.value);
  }
}

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

// volume::ProbabilityVolumeSet ----------------------------------------------

void serialize_probability_volume_set(const volume::ProbabilityVolumeSet& set,
                                      ByteWriter& out) {
  struct Row {
    core::VolumeId id;
    util::InternId resource;
    const std::vector<volume::VolumeEntry>* entries;
  };
  std::vector<Row> rows;
  rows.reserve(set.volume_count());
  for (const auto& [resource, entries] : set.volumes()) {
    rows.push_back({set.volume_id(resource), resource, &entries});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.id < b.id; });
  out.u64(rows.size());
  for (const auto& row : rows) {
    out.u32(row.resource);
    out.u64(row.entries->size());
    for (const auto& entry : *row.entries) {
      out.u32(entry.resource);
      out.f64(entry.probability);
      out.f64(entry.effectiveness);
    }
  }
}

bool deserialize_probability_volume_set(ByteReader& in,
                                        volume::ProbabilityVolumeSet& set,
                                        std::string& error) {
  if (set.volume_count() != 0) {
    error = "probability volume set not empty";
    return false;
  }
  const auto count = in.u64();
  if (!in.fits(count, 12)) {
    error = "probability volume count overruns input";
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto resource = in.u32();
    const auto entry_count = in.u64();
    if (!in.fits(entry_count, 20)) {
      error = "probability volume entry count overruns input";
      return false;
    }
    std::vector<volume::VolumeEntry> entries;
    entries.reserve(entry_count);
    for (std::uint64_t j = 0; j < entry_count; ++j) {
      const volume::VolumeEntry entry{in.u32(), in.f64(), in.f64()};
      entries.push_back(entry);
    }
    if (!in.ok()) {
      error = "truncated probability volumes";
      return false;
    }
    if (entries.empty()) {
      error = "empty probability volume";
      return false;
    }
    set.add_volume(resource, std::move(entries));
    if (set.volume_id(resource) != static_cast<core::VolumeId>(i)) {
      error = "duplicate resource in probability volumes";
      return false;
    }
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

// StateAccess: volume::PairCounts -------------------------------------------

void StateAccess::serialize_pair_counts(const volume::PairCounts& counts,
                                        ByteWriter& out) {
  serialize_u64_vector(counts.c_r_, out);
  serialize_flat_map(counts.pairs_, out,
                     [](ByteWriter& w, const volume::PairCount& pair) {
                       w.u64(pair.count);
                       w.u64(pair.cr_at_creation);
                     });
}

bool StateAccess::deserialize_pair_counts(ByteReader& in,
                                          volume::PairCounts& counts,
                                          std::string& error) {
  if (!deserialize_u64_vector(in, counts.c_r_, error)) return false;
  return deserialize_flat_map(
      in, counts.pairs_,
      [](ByteReader& r, volume::PairCount& pair, std::string&) {
        pair.count = r.u64();
        pair.cr_at_creation = r.u64();
        return true;
      },
      error);
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

// StateAccess: proxy::ProxyCache --------------------------------------------

void StateAccess::serialize_proxy_cache(const proxy::ProxyCache& cache,
                                        ByteWriter& out) {
  out.u64(cache.config_.capacity_bytes);
  out.i64(cache.config_.freshness_interval);
  out.u8(static_cast<std::uint8_t>(cache.config_.policy));
  out.u64(cache.used_);
  out.f64(cache.gd_inflation_);

  // Entries in LRU order (most recent first). Iterator positions are not
  // serialized; the restore rebuilds them from the queue orders below.
  out.u64(cache.lru_.size());
  util::FlatMap<std::uint64_t, std::uint64_t> index_of;
  index_of.reserve(cache.lru_.size());
  std::uint64_t index = 0;
  for (const auto packed : cache.lru_) {
    const auto& entry = cache.entries_.at(packed);
    out.u32(entry.key.server);
    out.u32(entry.key.path);
    out.u64(entry.size);
    out.i64(entry.last_modified);
    out.i64(entry.expires.value);
    out.i64(entry.last_access.value);
    out.f64(entry.gd_h);
    out.f64(entry.hint);
    index_of.try_emplace(packed, index++);
  }

  // The replacement queues as entry-index sequences in iteration order.
  // multimap::emplace inserts at the upper bound of an equal-key range, so
  // re-inserting in this order reproduces the relative order of ties —
  // which pick_victim() depends on.
  const auto write_queue = [&](const auto& queue) {
    out.u64(queue.size());
    for (const auto& kv : queue) out.u64(index_of.at(kv.second));
  };
  write_queue(cache.gd_queue_);
  write_queue(cache.size_queue_);
  write_queue(cache.expiry_queue_);

  serialize_flat_map(cache.freshness_overrides_, out,
                     [](ByteWriter& w, util::Seconds s) { w.i64(s); });

  out.u64(cache.stats_.lookups);
  out.u64(cache.stats_.fresh_hits);
  out.u64(cache.stats_.stale_hits);
  out.u64(cache.stats_.misses);
  out.u64(cache.stats_.insertions);
  out.u64(cache.stats_.evictions);
  out.u64(cache.stats_.piggyback_refreshes);
  out.u64(cache.stats_.piggyback_invalidations);
}

bool StateAccess::deserialize_proxy_cache(ByteReader& in,
                                          proxy::ProxyCache& cache,
                                          std::string& error) {
  using Entry = proxy::ProxyCache::Entry;
  const auto capacity = in.u64();
  const auto freshness = in.i64();
  const auto policy = in.u8();
  if (!in.ok()) {
    error = "truncated cache header";
    return false;
  }
  if (capacity != cache.config_.capacity_bytes ||
      freshness != cache.config_.freshness_interval ||
      policy != static_cast<std::uint8_t>(cache.config_.policy)) {
    error = "cache config mismatch";
    return false;
  }
  const auto used = in.u64();
  const auto inflation = in.f64();
  const auto entry_count = in.u64();
  if (!in.fits(entry_count, 56)) {
    error = "cache entry count overruns input";
    return false;
  }

  // Decode everything before mutating the cache: entries in LRU order...
  std::vector<Entry> entries;
  entries.reserve(entry_count);
  util::FlatMap<std::uint64_t, std::uint8_t> seen_keys;
  seen_keys.reserve(entry_count);
  std::uint64_t total_size = 0;
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    Entry entry{};
    entry.key.server = in.u32();
    entry.key.path = in.u32();
    entry.size = in.u64();
    entry.last_modified = in.i64();
    entry.expires = util::TimePoint{in.i64()};
    entry.last_access = util::TimePoint{in.i64()};
    entry.gd_h = in.f64();
    entry.hint = in.f64();
    if (!in.ok()) {
      error = "truncated cache entries";
      return false;
    }
    if (!seen_keys.try_emplace(entry.key.packed()).second) {
      error = "duplicate cache entry";
      return false;
    }
    total_size += entry.size;
    entries.push_back(entry);
  }
  if (total_size != used) {
    error = "cache used-bytes mismatch";
    return false;
  }

  // ...then the three queue orders (each a permutation of entry indices)...
  const auto read_queue = [&](std::vector<std::uint64_t>& order) {
    const auto count = in.u64();
    if (!in.ok() || count != entries.size()) return false;
    std::vector<std::uint8_t> seen(entries.size(), 0);
    order.clear();
    order.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto idx = in.u64();
      if (!in.ok() || idx >= entries.size() || seen[idx] != 0) return false;
      seen[idx] = 1;
      order.push_back(idx);
    }
    return true;
  };
  std::vector<std::uint64_t> gd_order;
  std::vector<std::uint64_t> size_order;
  std::vector<std::uint64_t> expiry_order;
  if (!read_queue(gd_order) || !read_queue(size_order) ||
      !read_queue(expiry_order)) {
    error = "invalid cache queue order";
    return false;
  }

  // ...then overrides and stats.
  util::FlatMap<std::uint64_t, util::Seconds> overrides;
  if (!deserialize_flat_map(
          in, overrides,
          [](ByteReader& r, util::Seconds& s, std::string&) {
            s = r.i64();
            return true;
          },
          error)) {
    return false;
  }
  proxy::CacheStats stats;
  stats.lookups = in.u64();
  stats.fresh_hits = in.u64();
  stats.stale_hits = in.u64();
  stats.misses = in.u64();
  stats.insertions = in.u64();
  stats.evictions = in.u64();
  stats.piggyback_refreshes = in.u64();
  stats.piggyback_invalidations = in.u64();
  if (!in.ok()) {
    error = "truncated cache stats";
    return false;
  }

  // Install: clear, rebuild the LRU list and entry map, then re-insert the
  // queues in recorded order and patch the iterator positions.
  cache.entries_.clear();
  cache.lru_.clear();
  cache.gd_queue_.clear();
  cache.size_queue_.clear();
  cache.expiry_queue_.clear();
  cache.freshness_overrides_ = std::move(overrides);
  cache.used_ = used;
  cache.gd_inflation_ = inflation;
  cache.stats_ = stats;

  cache.entries_.reserve(entries.size());
  std::vector<std::uint64_t> packed_of;
  packed_of.reserve(entries.size());
  for (const auto& entry : entries) {
    const auto packed = entry.key.packed();
    packed_of.push_back(packed);
    cache.lru_.push_back(packed);
    auto [it, inserted] = cache.entries_.try_emplace(packed, entry);
    PW_ENSURE(inserted);  // duplicates were rejected above
    it->second.lru_pos = std::prev(cache.lru_.end());
  }
  // entries_ is fully populated (reserved above, so no rehash happens
  // after this point) — references handed out by at() stay valid.
  for (const auto idx : gd_order) {
    auto& entry = cache.entries_.at(packed_of[idx]);
    entry.gd_pos = cache.gd_queue_.emplace(entry.gd_h, packed_of[idx]);
  }
  for (const auto idx : size_order) {
    auto& entry = cache.entries_.at(packed_of[idx]);
    entry.size_pos = cache.size_queue_.emplace(entry.size, packed_of[idx]);
  }
  for (const auto idx : expiry_order) {
    auto& entry = cache.entries_.at(packed_of[idx]);
    entry.expiry_pos =
        cache.expiry_queue_.emplace(entry.expires.value, packed_of[idx]);
  }
  return true;
}

// StateAccess: core::RpvTable -----------------------------------------------

void StateAccess::serialize_rpv_table(const core::RpvTable& table,
                                      ByteWriter& out) {
  out.i64(table.config_.timeout);
  out.u64(table.config_.max_entries);
  out.u64(table.max_servers_);
  serialize_flat_map(table.lists_, out,
                     [](ByteWriter& w, const core::RpvList& list) {
                       serialize_rpv_list(list, w);
                     });
  out.u64(table.use_order_.size());
  for (const auto server : table.use_order_) out.u32(server);
}

bool StateAccess::deserialize_rpv_table(ByteReader& in, core::RpvTable& table,
                                        std::string& error) {
  const auto timeout = in.i64();
  const auto max_entries = in.u64();
  const auto max_servers = in.u64();
  if (!in.ok()) {
    error = "truncated rpv table header";
    return false;
  }
  if (timeout != table.config_.timeout ||
      max_entries != table.config_.max_entries ||
      max_servers != table.max_servers_) {
    error = "rpv table config mismatch";
    return false;
  }
  table.lists_.clear();
  table.use_order_.clear();
  const auto count = in.u64();
  if (!in.fits(count, 16)) {
    error = "rpv table count overruns input";
    return false;
  }
  table.lists_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto raw = in.u64();
    if (!in.ok()) {
      error = "truncated rpv table";
      return false;
    }
    if (raw > 0xffffffffull) {
      error = "rpv server id out of range";
      return false;
    }
    const auto [it, inserted] =
        table.lists_.try_emplace(static_cast<util::InternId>(raw),
                                 table.config_);
    if (!inserted) {
      error = "duplicate rpv server";
      return false;
    }
    std::vector<core::RpvEntry> entries;
    if (!deserialize_rpv_entries(in, entries, error)) return false;
    it->second.restore_entries(entries);
  }
  const auto order_count = in.u64();
  if (!in.ok() || order_count != table.lists_.size()) {
    error = "rpv use order size mismatch";
    return false;
  }
  util::FlatMap<util::InternId, std::uint8_t> seen;
  seen.reserve(order_count);
  for (std::uint64_t i = 0; i < order_count; ++i) {
    const auto server = in.u32();
    if (!in.ok()) {
      error = "truncated rpv use order";
      return false;
    }
    if (!table.lists_.contains(server)) {
      error = "rpv use order references unknown server";
      return false;
    }
    if (!seen.try_emplace(server).second) {
      error = "duplicate server in rpv use order";
      return false;
    }
    table.use_order_.push_back(server);
  }
  return true;
}

}  // namespace piggyweb::persist
