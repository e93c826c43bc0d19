#include "proxy/cache.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "util/expect.h"

namespace piggyweb::proxy {

const char* policy_name(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kSize:
      return "size";
    case ReplacementPolicy::kGdSize:
      return "gd-size";
    case ReplacementPolicy::kLruPiggyback:
      return "lru-piggyback";
    case ReplacementPolicy::kGdSizeHint:
      return "gd-size-hint";
  }
  return "?";
}

ProxyCache::ProxyCache(const CacheConfig& config) : config_(config) {
  PW_EXPECT(config.capacity_bytes > 0);
  PW_EXPECT(config.freshness_interval > 0);
}

util::Seconds ProxyCache::freshness_for(const CacheKey& key) const {
  const auto it = freshness_overrides_.find(key.packed());
  return it == freshness_overrides_.end() ? config_.freshness_interval
                                          : it->second;
}

void ProxyCache::set_freshness_override(const CacheKey& key,
                                        util::Seconds delta) {
  PW_EXPECT(delta > 0);
  freshness_overrides_[key.packed()] = delta;
}

double ProxyCache::gd_credit(const Entry& entry) const {
  // Uniform-cost GreedyDual-Size credit 1/size; with hints, a predicted
  // re-access is worth up to 10x the base credit.
  const auto size = static_cast<double>(std::max<std::uint64_t>(
      1, entry.size));
  if (config_.policy == ReplacementPolicy::kGdSizeHint) {
    return (1.0 + 9.0 * entry.hint) / size;
  }
  return 1.0 / size;
}

// The entry's key in order_ after an insert or a use.
double ProxyCache::next_priority(const Entry& entry) {
  switch (config_.policy) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kLruPiggyback:
      return static_cast<double>(++uses_);
    case ReplacementPolicy::kSize:
      return static_cast<double>(entry.size);
    case ReplacementPolicy::kGdSize:
    case ReplacementPolicy::kGdSizeHint:
      // GreedyDual-Size: full credit at the current inflation level.
      return gd_inflation_ + gd_credit(entry);
  }
  return 0;
}

void ProxyCache::set_hint(const CacheKey& key, double hint) {
  PW_EXPECT(hint >= 0.0 && hint <= 1.0);
  const auto it = entries_.find(key.packed());
  if (it == entries_.end()) return;
  it->second.hint = hint;
  if (config_.policy == ReplacementPolicy::kGdSizeHint) touch(it->second);
}

void ProxyCache::set_expiry(Entry& entry, util::TimePoint expires) {
  entry.expires = expires;
  auto node = expiry_queue_.extract(entry.expiry_pos);
  node.key() = expires.value;
  entry.expiry_pos = expiry_queue_.insert(std::move(node));
}

void ProxyCache::touch(Entry& entry) {
  // SIZE keys by size, which a use does not change.
  if (config_.policy == ReplacementPolicy::kSize) return;
  // Re-key the node in place: it goes behind its new equals, as an
  // insert would, and a use allocates nothing.
  auto node = order_.extract(entry.order_pos);
  node.key() = next_priority(entry);
  entry.order_pos = order_.insert(std::move(node));
}

LookupOutcome ProxyCache::lookup(const CacheKey& key, util::TimePoint now) {
  ++stats_.lookups;
  const auto it = entries_.find(key.packed());
  if (it == entries_.end()) {
    ++stats_.misses;
    return LookupOutcome::kMiss;
  }
  touch(it->second);
  if (now < it->second.expires) {
    ++stats_.fresh_hits;
    return LookupOutcome::kFreshHit;
  }
  ++stats_.stale_hits;
  return LookupOutcome::kStaleHit;
}

void ProxyCache::erase_entry(std::uint64_t packed) {
  const auto it = entries_.find(packed);
  PW_EXPECT(it != entries_.end());
  used_ -= it->second.size;
  order_.erase(it->second.order_pos);
  expiry_queue_.erase(it->second.expiry_pos);
  entries_.erase(it);
}

void ProxyCache::evict_until_fits(std::uint64_t incoming) {
  while (!entries_.empty() &&
         used_ + incoming > config_.capacity_bytes) {
    // SIZE evicts the largest entry, the newest among equals; the other
    // policies evict the lowest priority, the oldest among equals.
    const auto victim = config_.policy == ReplacementPolicy::kSize
                            ? std::prev(order_.end())
                            : order_.begin();
    if (config_.policy == ReplacementPolicy::kGdSize ||
        config_.policy == ReplacementPolicy::kGdSizeHint) {
      // GreedyDual-Size: inflation rises to the evicted entry's H.
      gd_inflation_ = victim->first;
    }
    erase_entry(victim->second);
    ++stats_.evictions;
  }
}

void ProxyCache::insert(const CacheKey& key, std::uint64_t size,
                        std::int64_t last_modified, util::TimePoint now) {
  if (size > config_.capacity_bytes) return;  // never cache the uncachable
  const auto packed = key.packed();
  if (const auto it = entries_.find(packed); it != entries_.end()) {
    erase_entry(packed);
  }
  evict_until_fits(size);

  Entry entry;
  entry.key = key;
  entry.size = size;
  entry.last_modified = last_modified;
  entry.expires = now + freshness_for(key);
  entry.order_pos = order_.emplace(next_priority(entry), packed);
  entry.expiry_pos = expiry_queue_.emplace(entry.expires.value, packed);
  used_ += size;
  entries_.emplace(packed, entry);
  ++stats_.insertions;
}

void ProxyCache::revalidate(const CacheKey& key, util::TimePoint now) {
  const auto it = entries_.find(key.packed());
  if (it == entries_.end()) return;
  set_expiry(it->second, now + freshness_for(key));
}

ProxyCache::PiggybackEffect ProxyCache::apply_piggyback(
    const CacheKey& key, std::int64_t last_modified, util::TimePoint now) {
  const auto it = entries_.find(key.packed());
  if (it == entries_.end()) return PiggybackEffect::kNotCached;
  if (it->second.last_modified >= last_modified) {
    // Our copy is current: a free revalidation.
    set_expiry(it->second, now + freshness_for(key));
    if (config_.policy == ReplacementPolicy::kLruPiggyback) {
      touch(it->second);
    }
    ++stats_.piggyback_refreshes;
    return PiggybackEffect::kRefreshed;
  }
  // The server has a newer version: drop the stale copy.
  erase_entry(key.packed());
  ++stats_.piggyback_invalidations;
  return PiggybackEffect::kInvalidated;
}

bool ProxyCache::contains(const CacheKey& key) const {
  return entries_.contains(key.packed());
}

std::vector<ProxyCache::ExpiringEntry> ProxyCache::expiring_soon(
    util::InternId server, util::TimePoint now, util::Seconds horizon,
    std::size_t limit) const {
  std::vector<ExpiringEntry> out;
  const auto deadline = (now + horizon).value;
  for (auto it = expiry_queue_.begin();
       it != expiry_queue_.end() && it->first <= deadline &&
       out.size() < limit;
       ++it) {
    const auto& entry = entries_.at(it->second);
    if (entry.key.server != server) continue;
    out.push_back({entry.key, entry.last_modified, entry.expires});
  }
  return out;
}

std::optional<std::int64_t> ProxyCache::cached_last_modified(
    const CacheKey& key) const {
  const auto it = entries_.find(key.packed());
  if (it == entries_.end()) return std::nullopt;
  return it->second.last_modified;
}

}  // namespace piggyweb::proxy
