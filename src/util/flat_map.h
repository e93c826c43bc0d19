// Open-addressing hash map for unsigned-integer keys — the hot-path
// replacement for node-based std::unordered_map in the pair counters,
// per-source eval state, proxy cache, and RPV tables.
//
// Design:
//   * power-of-two capacity, linear probing, max load factor 3/4;
//   * slots are a single contiguous array of std::pair<K, V> plus a byte
//     of occupancy metadata per slot — a lookup touches one or two cache
//     lines instead of chasing a bucket node pointer;
//   * deletion is tombstone-free backward-shift: the hole left by an
//     erase is filled by sliding later probe-chain members back, so probe
//     chains never accumulate dead slots and lookups stay O(chain);
//   * keys are hashed through util::mix64, which avalanches dense ids
//     (intern ids, packed id pairs) across the table.
//
// Semantics match std::unordered_map where the call sites use it:
// find/end, operator[], try_emplace/emplace/insert, erase by key or
// iterator, contains/count/at, clear (capacity kept), reserve, swap, and
// forward iteration with structured bindings. Iteration order is
// unspecified and differs from std::unordered_map; every consumer in this
// codebase is order-independent (sums, point lookups, or sorts-after).
// Any insert or erase may move elements (rehash / backward shift), so
// references and iterators are invalidated by mutation, full stop —
// unlike std::unordered_map, which keeps references stable. Call sites
// must not hold a reference across a mutating call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/expect.h"
#include "util/hash.h"

namespace piggyweb::util {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_unsigned_v<K>,
                "FlatMap keys are unsigned integers (intern ids or packed "
                "id pairs); use InternTable for string keys");

 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using size_type = std::size_t;

  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;

    reference operator*() const { return owner_->slots_[idx_]; }
    pointer operator->() const { return &owner_->slots_[idx_]; }

    Iter& operator++() {
      ++idx_;
      skip_empty();
      return *this;
    }
    Iter operator++(int) {
      Iter copy = *this;
      ++*this;
      return copy;
    }

    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }

    // iterator -> const_iterator
    template <bool C = Const, typename = std::enable_if_t<!C>>
    operator Iter<true>() const {
      return Iter<true>(owner_, idx_);
    }

   private:
    friend class FlatMap;
    friend class Iter<!Const>;
    using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;

    Iter(Owner* owner, std::size_t idx) : owner_(owner), idx_(idx) {}

    void skip_empty() {
      while (idx_ < owner_->capacity_ && !owner_->full_[idx_]) ++idx_;
    }

    Owner* owner_ = nullptr;
    std::size_t idx_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  explicit FlatMap(std::size_t expected_size) { reserve(expected_size); }

  FlatMap(const FlatMap& other) { assign_from(other); }
  FlatMap& operator=(const FlatMap& other) {
    if (this != &other) {
      destroy_all();
      release();
      assign_from(other);
    }
    return *this;
  }

  FlatMap(FlatMap&& other) noexcept { swap(other); }
  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      destroy_all();
      release();
      swap(other);
    }
    return *this;
  }

  ~FlatMap() {
    destroy_all();
    release();
  }

  void swap(FlatMap& other) noexcept {
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
    std::swap(slots_, other.slots_);
    std::swap(full_, other.full_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bucket_count() const { return capacity_; }

  iterator begin() {
    iterator it(this, 0);
    it.skip_empty();
    return it;
  }
  const_iterator begin() const {
    const_iterator it(this, 0);
    it.skip_empty();
    return it;
  }
  iterator end() { return iterator(this, capacity_); }
  const_iterator end() const { return const_iterator(this, capacity_); }
  const_iterator cbegin() const { return begin(); }
  const_iterator cend() const { return end(); }

  iterator find(K key) { return iterator(this, find_index(key)); }
  const_iterator find(K key) const {
    return const_iterator(this, find_index(key));
  }

  bool contains(K key) const { return find_index(key) != capacity_; }
  std::size_t count(K key) const { return contains(key) ? 1 : 0; }

  V& at(K key) {
    const auto idx = find_index(key);
    PW_EXPECT(idx != capacity_);
    return slots_[idx].second;
  }
  const V& at(K key) const {
    const auto idx = find_index(key);
    PW_EXPECT(idx != capacity_);
    return slots_[idx].second;
  }

  V& operator[](K key) { return try_emplace(key).first->second; }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(K key, Args&&... args) {
    grow_if_needed();
    auto idx = probe(key);
    if (full_[idx]) return {iterator(this, idx), false};
    ::new (static_cast<void*>(slots_ + idx))
        value_type(std::piecewise_construct, std::forward_as_tuple(key),
                   std::forward_as_tuple(std::forward<Args>(args)...));
    full_[idx] = 1;
    ++size_;
    return {iterator(this, idx), true};
  }

  template <typename U>
  std::pair<iterator, bool> emplace(K key, U&& value) {
    return try_emplace(key, std::forward<U>(value));
  }

  std::pair<iterator, bool> insert(const value_type& kv) {
    return try_emplace(kv.first, kv.second);
  }
  std::pair<iterator, bool> insert(value_type&& kv) {
    return try_emplace(kv.first, std::move(kv.second));
  }

  // Erase by key; returns the number of elements removed (0 or 1).
  std::size_t erase(K key) {
    const auto idx = find_index(key);
    if (idx == capacity_) return 0;
    erase_at(idx);
    return 1;
  }

  // Erase by iterator. Backward-shift deletion moves later probe-chain
  // members, so the iterator (and all others) is invalidated.
  void erase(const_iterator pos) {
    PW_EXPECT(pos.owner_ == this && pos.idx_ < capacity_ &&
              full_[pos.idx_]);
    erase_at(pos.idx_);
  }

  // Destroys all elements but keeps the allocation, so a clear/refill
  // cycle (per-source scratch tables) does not reallocate.
  void clear() {
    destroy_all();
    size_ = 0;
  }

  // Equality is content equality: same key set, equal mapped values.
  // Capacity, probe layout, and insertion/erase history do not matter, so
  // a map rebuilt from a serialized snapshot compares equal to the
  // original regardless of the churn that produced either side.
  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    if (a.size_ != b.size_) return false;
    for (const auto& [key, value] : a) {
      const auto it = b.find(key);
      if (it == b.end() || !(it->second == value)) return false;
    }
    return true;
  }

  // Ensure capacity for `expected_size` elements without further rehash.
  void reserve(std::size_t expected_size) {
    const std::size_t needed = capacity_for(expected_size);
    if (needed > capacity_) rehash(needed);
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  // Smallest power of two, at least kMinCapacity, that holds
  // `expected_size` elements at load factor 3/4.
  static std::size_t capacity_for(std::size_t expected_size) {
    std::size_t needed = kMinCapacity;
    while (needed * 3 < expected_size * 4) needed <<= 1;
    return needed;
  }

  std::size_t home(K key) const {
    return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(key))) &
           (capacity_ - 1);
  }

  // Index of `key`, or capacity_ when absent.
  std::size_t find_index(K key) const {
    if (capacity_ == 0) return 0;  // == capacity_: empty map, end()
    std::size_t idx = home(key);
    const std::size_t mask = capacity_ - 1;
    while (full_[idx]) {
      if (slots_[idx].first == key) return idx;
      idx = (idx + 1) & mask;
    }
    return capacity_;
  }

  // First slot for `key`: its own if present, else the empty slot an
  // insert would use. Requires capacity_ > 0.
  std::size_t probe(K key) const {
    std::size_t idx = home(key);
    const std::size_t mask = capacity_ - 1;
    while (full_[idx] && slots_[idx].first != key) idx = (idx + 1) & mask;
    return idx;
  }

  void grow_if_needed() {
    if (capacity_ == 0) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > capacity_ * 3) {
      rehash(capacity_ * 2);
    }
  }

  void rehash(std::size_t new_capacity) {
    PW_EXPECT((new_capacity & (new_capacity - 1)) == 0);
    value_type* old_slots = slots_;
    std::uint8_t* old_full = full_;
    const std::size_t old_capacity = capacity_;

    slots_ = static_cast<value_type*>(::operator new(
        new_capacity * sizeof(value_type), std::align_val_t{alignof(value_type)}));
    full_ = static_cast<std::uint8_t*>(::operator new(new_capacity));
    std::fill_n(full_, new_capacity, std::uint8_t{0});
    capacity_ = new_capacity;

    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (!old_full[i]) continue;
      const auto idx = probe(old_slots[i].first);
      ::new (static_cast<void*>(slots_ + idx))
          value_type(std::move(old_slots[i]));
      full_[idx] = 1;
      old_slots[i].~value_type();
    }
    if (old_slots != nullptr) {
      ::operator delete(old_slots, std::align_val_t{alignof(value_type)});
      ::operator delete(old_full);
    }
  }

  void erase_at(std::size_t idx) {
    const std::size_t mask = capacity_ - 1;
    slots_[idx].~value_type();
    full_[idx] = 0;
    --size_;
    // Backward shift: walk the probe chain after the hole; any member
    // whose probe distance reaches back to the hole slides into it
    // (keeping every remaining element reachable from its home slot
    // without tombstones). Stops at the first empty slot.
    std::size_t hole = idx;
    std::size_t i = idx;
    while (true) {
      i = (i + 1) & mask;
      if (!full_[i]) break;
      const std::size_t ideal = home(slots_[i].first);
      if (((i - ideal) & mask) >= ((i - hole) & mask)) {
        ::new (static_cast<void*>(slots_ + hole))
            value_type(std::move(slots_[i]));
        slots_[i].~value_type();
        full_[hole] = 1;
        full_[i] = 0;
        hole = i;
      }
    }
  }

  void destroy_all() {
    if constexpr (!std::is_trivially_destructible_v<value_type>) {
      for (std::size_t i = 0; i < capacity_; ++i) {
        if (full_[i]) slots_[i].~value_type();
      }
    }
    if (full_ != nullptr) std::fill_n(full_, capacity_, std::uint8_t{0});
  }

  void release() {
    if (slots_ != nullptr) {
      ::operator delete(slots_, std::align_val_t{alignof(value_type)});
      ::operator delete(full_);
    }
    slots_ = nullptr;
    full_ = nullptr;
    capacity_ = 0;
    size_ = 0;
  }

  void assign_from(const FlatMap& other) {
    if (other.size_ == 0) return;
    reserve(other.size_);
    for (std::size_t i = 0; i < other.capacity_; ++i) {
      if (!other.full_[i]) continue;
      const auto idx = probe(other.slots_[i].first);
      ::new (static_cast<void*>(slots_ + idx)) value_type(other.slots_[i]);
      full_[idx] = 1;
      ++size_;
    }
  }

  std::size_t capacity_ = 0;  // always 0 or a power of two
  std::size_t size_ = 0;
  value_type* slots_ = nullptr;
  std::uint8_t* full_ = nullptr;  // 1 = slot occupied
};

}  // namespace piggyweb::util
