// Directory-based volumes (§3.2).
//
// Resources sharing a k-level directory prefix form a volume ("one-level
// volumes put /a/b.html and /a/d/e.html together; zero-level prefixes make
// one site-wide volume"). Volumes are maintained online exactly as §3.2.1
// prescribes:
//   * one recency list per volume whose elements carry a partition by
//     content type and size class (so filters can serve "popular items
//     of certain content types and sizes"); the partition breaks ties
//     between elements accessed in the same second,
//   * move-to-front on access (last-access-time as the popularity metric,
//     constant-time maintenance),
//   * tail-trimming of the list to bound volume size.
#pragma once

#include <cstdint>
#include <vector>

#include "core/piggyback.h"
#include "util/flat_map.h"
#include "util/intern.h"

namespace piggyweb::persist {
struct StateAccess;
}

namespace piggyweb::volume {

struct DirectoryVolumeConfig {
  int level = 1;                          // directory prefix depth
  std::size_t max_volume_elements = 2000; // tail-trim bound per volume
  std::size_t max_candidates = 200;       // cap on returned candidate list
  std::uint64_t large_size_threshold = 8 * 1024;  // size-class boundary

  // Volume-id numbering: the i-th volume this instance discovers gets id
  // id_offset + i * id_stride. The parallel evaluator gives shard k of S
  // offset k / stride S so ids stay globally unique across per-shard
  // instances — RPV suppression compares ids for equality, so uniqueness
  // is all that is needed for serial-identical filtering.
  core::VolumeId id_offset = 0;
  core::VolumeId id_stride = 1;
};

class DirectoryVolumes final : public core::VolumeProvider {
 public:
  explicit DirectoryVolumes(const DirectoryVolumeConfig& config);

  // Observes the access (insert or move-to-front) and returns the volume's
  // current contents in recency order (most recent first), capped at
  // max_candidates. The requested resource itself is included; the filter
  // layer strips it.
  core::VolumePrediction on_request(
      const core::VolumeRequest& request) override;

  // Same per-request sequence, but reuses the candidate vectors staged in
  // `predictions`, so a steady-state batch loop performs no allocation.
  void on_request_batch(
      std::span<const core::VolumeRequest> requests,
      std::vector<core::VolumePrediction>& predictions) override;

  // Observes the access as on_request does, then offers the volume's
  // contents in the same order straight to the filter, stopping once the
  // message is full or max_candidates have been offered.
  void on_request_filtered(const core::VolumeRequest& request,
                           const core::ProxyFilter& filter,
                           const core::MetaOracle& meta,
                           core::PiggybackMessage& out) override;

  std::size_t volume_count() const override { return volumes_.size(); }
  const char* scheme_name() const override { return "directory"; }

  // Volume id for a (server, path) pair without mutating state; kNoVolume
  // if that volume has never been touched.
  core::VolumeId peek_volume(util::InternId server,
                             std::string_view path) const;

  // Number of elements currently held by a volume.
  std::size_t volume_size(core::VolumeId id) const;

  int level() const { return config_.level; }

 private:
  friend struct piggyweb::persist::StateAccess;

  // Partition index: 3 content types x 2 size classes.
  static constexpr std::size_t kPartitions = 6;
  static std::size_t partition_of(trace::ContentType type,
                                  std::uint64_t size,
                                  std::uint64_t large_threshold);

  // Node index meaning "none": the end of a list or an empty free list.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    util::TimePoint last_access;
    util::InternId resource;
    std::uint32_t prev;
    std::uint32_t next;
    std::uint32_t part;  // partition_of the element's latest access
  };

  // One volume is one doubly linked list whose nodes live in `nodes` and
  // link by index. The list is kept in candidate order: last access
  // descending, then partition ascending, then most recently used first.
  // So candidates are a walk from `head`, and trim works from `tail`.
  // Trimmed nodes are chained through `next` from `free` for reuse.
  struct Volume {
    std::vector<Node> nodes;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t free = kNil;
    util::FlatMap<util::InternId, std::uint32_t> index;  // resource -> node
  };

  // (server id, interned prefix id) packed into the volume lookup key.
  static std::uint64_t volume_key(util::InternId server,
                                  util::InternId prefix) {
    return (static_cast<std::uint64_t>(server) << 32) | prefix;
  }

  // Applies the access to its volume (insert or move-to-front, then
  // trim) and returns the volume's dense local index.
  core::VolumeId observe(const core::VolumeRequest& request);
  // Public id of the volume at dense local index `local`.
  core::VolumeId public_id(core::VolumeId local) const {
    return config_.id_offset + config_.id_stride * local;
  }
  void predict_into(const core::VolumeRequest& request,
                    core::VolumePrediction& out);
  // Sets the element's last access and partition and relinks it at its
  // place in candidate order: after the nodes accessed later, and after
  // the nodes of lower partitions accessed in the same second. Callers
  // touch in non-decreasing time, so that place is at or near the head;
  // an older touch walks further and still lands in order.
  void touch(Volume& volume, const core::VolumeRequest& request);
  // While the volume is over its bound, evicts the least recently used
  // element of the lowest partition among those accessed in the oldest
  // second.
  void trim(Volume& volume);
  static void unlink(Volume& volume, std::uint32_t node);
  // Links `node` in before `next` (kNil: at the tail).
  static void link_before(Volume& volume, std::uint32_t node,
                          std::uint32_t next);
  // Calls visit(resource) on the volume's elements in list order — last
  // access descending, then partition ascending, then most recently used
  // first within a partition — until it returns false or max_candidates
  // elements have been visited. collect() and on_request_filtered() both
  // read a volume through this one walk.
  template <typename Visit>
  void for_each_candidate(const Volume& volume, Visit&& visit) const;
  void collect(const Volume& volume, std::vector<util::InternId>& out) const;

  // Path string for an id from whichever table is bound (see bind_paths).
  std::string_view path_str(util::InternId path) const {
    return live_paths_ != nullptr ? live_paths_->str(path)
                                  : fixed_paths_.str(path);
  }

  // Interned prefix id for a path id, via the derived per-path cache:
  // a path's prefix string never changes, so the directory_prefix scan +
  // prefix intern runs once per distinct path instead of once per request.
  util::InternId prefix_of(util::InternId path);

  DirectoryVolumeConfig config_;
  // A volume's identity is (server, k-level prefix). Prefix strings are
  // interned once, so the per-request lookup packs two dense ids instead
  // of building and hashing a "server|prefix" string.
  util::InternTable prefixes_;
  util::FlatMap<std::uint64_t, core::VolumeId> ids_;
  std::vector<Volume> volumes_;
  // The path table is owned by the caller. Two binding modes: a live
  // InternTable pointer (online servers keep interning new paths — the
  // table may grow after binding), or a fixed StringTableView (replay over
  // a loaded trace or an mmap'd container, where the table is immutable).
  const util::InternTable* live_paths_ = nullptr;
  util::StringTableView fixed_paths_;
  // path id -> interned prefix id; kInvalidIntern = not yet computed.
  // Derived state: rebuilt lazily, never serialized.
  std::vector<util::InternId> prefix_ids_;

 public:
  // The provider needs to turn interned path ids back into strings to
  // compute directory prefixes; bind the trace's path table once. The
  // InternTable overload tracks a table that keeps growing (live servers);
  // the view overload serves replay from an immutable table without
  // touching the InternTable at all.
  void bind_paths(const util::InternTable& paths) { live_paths_ = &paths; }
  void bind_paths(util::StringTableView paths) { fixed_paths_ = paths; }
};

}  // namespace piggyweb::volume
