// Recently-Piggybacked-Volume (RPV) lists (§2.2).
//
// The proxy keeps, per server, a short FIFO of (volume id, last piggyback
// time). On each request it sends the still-live volume ids as the `rpv`
// filter field, letting the server suppress redundant piggybacks without
// maintaining any per-proxy state. The list is bounded both by a timeout
// (never longer than the freshness interval Δ, or the server could never
// refresh the volume) and by a maximum length.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "core/piggyback.h"
#include "util/flat_map.h"
#include "util/time.h"

namespace piggyweb::core {

struct RpvConfig {
  util::Seconds timeout = 60;      // entry lifetime; must be <= Δ
  std::size_t max_entries = 16;    // per-server FIFO bound
};

// One FIFO slot: which volume was piggybacked, and when.
struct RpvEntry {
  VolumeId volume = kNoVolume;
  util::TimePoint when{};

  bool operator==(const RpvEntry&) const = default;
};

// FIFO of recently piggybacked volumes for one server.
class RpvList {
 public:
  explicit RpvList(const RpvConfig& config) : config_(config) {}

  // Record that a piggyback for `volume` arrived at `now`. An existing
  // entry is refreshed (moved to the back of the FIFO).
  void note(VolumeId volume, util::TimePoint now);

  // Live volume ids at `now` (after expiring stale entries), oldest first.
  std::vector<VolumeId> live(util::TimePoint now);

  // True if `volume` has been piggybacked within the timeout.
  bool contains(VolumeId volume, util::TimePoint now);

  std::size_t size() const { return entries_.size(); }

  // True when live(now) would find nothing: the list is empty or its
  // newest entry is past the timeout. A list that is empty at `now` stays
  // empty at every later time until the next note().
  bool empty_at(util::TimePoint now) const {
    return entries_.empty() || now - entries_.back().when > config_.timeout;
  }

  // Persistence support: the FIFO contents oldest-first, with no expiry
  // applied — a later run restores exactly what was saved and expires
  // entries itself. restore_entries replaces the current contents.
  std::vector<RpvEntry> entries() const;
  void restore_entries(std::span<const RpvEntry> entries);

 private:
  void expire(util::TimePoint now);

  using Entry = RpvEntry;
  RpvConfig config_;
  std::deque<Entry> entries_;
};

// Per-server RPV lists, hash-keyed by server id ("maintained efficiently
// as FIFO lists in a hash table keyed on the server IP address", §2.2).
// Bounded to the most recently active servers.
class RpvTable {
 public:
  explicit RpvTable(const RpvConfig& config, std::size_t max_servers = 256)
      : config_(config), max_servers_(max_servers) {}

  void note(util::InternId server, VolumeId volume, util::TimePoint now);
  std::vector<VolumeId> live(util::InternId server, util::TimePoint now);

  std::size_t tracked_servers() const { return lists_.size(); }

 private:
  void evict_if_needed(util::InternId just_used);

  RpvConfig config_;
  std::size_t max_servers_;
  util::FlatMap<util::InternId, RpvList> lists_;
  std::deque<util::InternId> use_order_;  // rough LRU of servers
};

}  // namespace piggyweb::core
