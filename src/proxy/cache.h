// Proxy cache with pluggable replacement and TTL-based coherency.
//
// Entries carry the Last-Modified time (version at the server) and an
// expiration time (when revalidation is required), exactly the per-entry
// state §2.1 assumes. Replacement supports the policies the paper's
// discussion touches:
//   * LRU — the conventional baseline,
//   * SIZE — evict largest first [6],
//   * GD-Size — GreedyDual-Size, cost/size aware [5],
//   * LRU-Piggyback — LRU where a piggyback refresh counts as a touch, so
//     resources the server predicts stay cached (§4, cache replacement),
//   * GD-Size-Hint — GreedyDual-Size credited with piggybacked implication
//     probabilities (server-assisted replacement, §4 / [24]).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "util/flat_map.h"
#include "util/intern.h"
#include "util/time.h"

namespace piggyweb::proxy {

struct CacheKey {
  util::InternId server = util::kInvalidIntern;
  util::InternId path = util::kInvalidIntern;

  bool operator==(const CacheKey&) const = default;

  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(server) << 32) | path;
  }
};

enum class ReplacementPolicy : std::uint8_t {
  kLru,
  kSize,
  kGdSize,
  kLruPiggyback,
  // GreedyDual-Size with server-assisted hints (§4, [24]): entries the
  // server predicts will be re-accessed (piggybacked implication
  // probabilities) earn extra credit and survive eviction longer.
  kGdSizeHint,
};

const char* policy_name(ReplacementPolicy policy);

enum class LookupOutcome : std::uint8_t {
  kMiss,       // not cached: full GET required
  kFreshHit,   // cached and within its freshness interval: serve directly
  kStaleHit,   // cached but expired: If-Modified-Since GET required
};

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t fresh_hits = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t piggyback_refreshes = 0;
  std::uint64_t piggyback_invalidations = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(fresh_hits + stale_hits) /
                              static_cast<double>(lookups);
  }
  double fresh_hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(fresh_hits) /
                              static_cast<double>(lookups);
  }
};

struct CacheConfig {
  std::uint64_t capacity_bytes = 64ULL * 1024 * 1024;
  util::Seconds freshness_interval = 2 * util::kHour;  // Δ
  ReplacementPolicy policy = ReplacementPolicy::kLru;
};

class ProxyCache {
 public:
  explicit ProxyCache(const CacheConfig& config);

  // Client request path ------------------------------------------------------

  LookupOutcome lookup(const CacheKey& key, util::TimePoint now);

  // Store (or overwrite) an entry after a 200 response. Objects larger
  // than the whole cache are not cached.
  void insert(const CacheKey& key, std::uint64_t size,
              std::int64_t last_modified, util::TimePoint now);

  // A 304 validated the entry: extend its expiration by Δ.
  void revalidate(const CacheKey& key, util::TimePoint now);

  // Piggyback processing path (§2.1, "proxy receives a server response") --

  // The piggyback listed this resource with `last_modified`. If our copy
  // matches, its expiration is refreshed (a free validation); if the
  // server's version is newer, the stale copy is deleted. Returns what
  // happened so prefetchers can react.
  enum class PiggybackEffect : std::uint8_t {
    kNotCached,
    kRefreshed,
    kInvalidated,
  };
  PiggybackEffect apply_piggyback(const CacheKey& key,
                                  std::int64_t last_modified,
                                  util::TimePoint now);

  // Inspection ----------------------------------------------------------------

  bool contains(const CacheKey& key) const;
  std::optional<std::int64_t> cached_last_modified(const CacheKey& key) const;
  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t capacity_bytes() const { return config_.capacity_bytes; }
  std::size_t entry_count() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }
  util::Seconds freshness_interval() const {
    return config_.freshness_interval;
  }

  // Per-resource freshness override (adaptive TTL application).
  void set_freshness_override(const CacheKey& key, util::Seconds delta);

  // Server-assisted replacement hint in [0, 1] — typically the
  // piggybacked implication probability. Only the kGdSizeHint policy
  // consults it; setting it re-credits the entry at the current
  // inflation level. No-op for uncached keys.
  void set_hint(const CacheKey& key, double hint);

  // Entries for `server` whose expiration falls at or before
  // `now + horizon` (already-stale entries included) — the candidates a
  // piggyback-cache-validation (PCV) proxy batches onto its next request
  // to that server. Ordered soonest-expiring first, capped at `limit`.
  struct ExpiringEntry {
    CacheKey key;
    std::int64_t last_modified;
    util::TimePoint expires;
  };
  std::vector<ExpiringEntry> expiring_soon(util::InternId server,
                                           util::TimePoint now,
                                           util::Seconds horizon,
                                           std::size_t limit) const;

 private:
  // The replacement order, keyed by the policy's priority: the use count
  // under LRU and LRU-Piggyback, the size under SIZE, H = L + credit under
  // GD-Size and GD-Size-Hint. An entry (re)keyed to a taken key goes
  // behind its equals.
  using Order = std::multimap<double, std::uint64_t>;

  struct Entry {
    CacheKey key;
    std::uint64_t size = 0;
    std::int64_t last_modified = -1;
    util::TimePoint expires{};
    double hint = 0;  // server-assisted replacement hint
    Order::iterator order_pos;
    std::multimap<util::Seconds, std::uint64_t>::iterator expiry_pos;
  };

  util::Seconds freshness_for(const CacheKey& key) const;
  double gd_credit(const Entry& entry) const;
  double next_priority(const Entry& entry);
  void touch(Entry& entry);
  void set_expiry(Entry& entry, util::TimePoint expires);
  void erase_entry(std::uint64_t packed);
  void evict_until_fits(std::uint64_t incoming);

  CacheConfig config_;
  std::uint64_t used_ = 0;
  std::uint64_t uses_ = 0;   // LRU clock
  double gd_inflation_ = 0;  // GreedyDual-Size "L"
  util::FlatMap<std::uint64_t, Entry> entries_;
  Order order_;
  std::multimap<util::Seconds, std::uint64_t> expiry_queue_;  // ascending
  util::FlatMap<std::uint64_t, util::Seconds> freshness_overrides_;
  CacheStats stats_;
};

}  // namespace piggyweb::proxy
