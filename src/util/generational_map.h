// Two-generation map for state that is read only within a bounded window
// of time: the per-source tables of the metric accumulator and the
// effectiveness pass. Instead of scanning for dead entries, the owner
// calls rotate() once per rotation interval, which drops the previous
// generation whole and makes the current one previous.
//
//   * touch() writes to the current generation; a key first written since
//     the last rotation moves over from the previous one, so each key
//     lives in exactly one generation.
//   * find() reads the current generation, then the previous one.
//   * rotate() swaps the two and clears the new current one, which keeps
//     its allocation: no slot is ever scanned for liveness, and a table
//     never regrows after a shrink.
//
// An entry dropped at a rotation was last touched before the previous
// rotation, so more than one rotation interval ago when rotations are at
// least that far apart. When that interval covers every window that reads
// the table, the dropped entry is one no later read could tell from an
// absent one. Each generation holds at most the keys touched within one
// interval (plus the gap to the request that rotates).
//
// References follow FlatMap's rule: touch() and rotate() invalidate every
// reference into the map.
#pragma once

#include <utility>

#include "util/flat_map.h"

namespace piggyweb::util {

template <typename K, typename V>
class GenerationalMap {
 public:
  // The value of `key`, in the current generation. `init` constructs it
  // only when neither generation holds the key.
  template <typename... Args>
  V& touch(K key, Args&&... init) {
    if (const auto it = current_.find(key); it != current_.end()) {
      return it->second;
    }
    const auto old = previous_.find(key);
    if (old == previous_.end()) {
      return current_.try_emplace(key, std::forward<Args>(init)...)
          .first->second;
    }
    V value = std::move(old->second);
    previous_.erase(old);
    return current_.try_emplace(key, std::move(value)).first->second;
  }

  // The value of `key` in either generation, or null.
  const V* find(K key) const {
    if (const auto it = current_.find(key); it != current_.end()) {
      return &it->second;
    }
    const auto old = previous_.find(key);
    return old == previous_.end() ? nullptr : &old->second;
  }

  // Drops the previous generation; the current one becomes previous.
  void rotate() {
    current_.swap(previous_);
    current_.clear();
  }

  // Calls visit(key, value) once per key, in unspecified order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& [key, value] : current_) visit(key, value);
    for (const auto& [key, value] : previous_) visit(key, value);
  }

 private:
  FlatMap<K, V> current_;
  FlatMap<K, V> previous_;
};

}  // namespace piggyweb::util
