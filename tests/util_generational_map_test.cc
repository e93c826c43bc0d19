#include "util/generational_map.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace piggyweb::util {
namespace {

template <typename K, typename V>
std::size_t key_count(const GenerationalMap<K, V>& map) {
  std::size_t n = 0;
  map.for_each([&n](K, const V&) { ++n; });
  return n;
}

TEST(GenerationalMap, TouchConstructsOnlyAnAbsentKey) {
  GenerationalMap<std::uint32_t, int> map;
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_EQ(map.touch(7, 5), 5);
  map.touch(7, 9) += 1;  // present: the init value is ignored
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 6);
  EXPECT_EQ(map.touch(8), 0);  // no init: value-initialized
  EXPECT_EQ(key_count(map), 2u);
}

TEST(GenerationalMap, CarriesAValueOnFirstWrite) {
  GenerationalMap<std::uint64_t, int> map;
  map.touch(1, 10);
  map.rotate();
  // Still readable from the previous generation, and a write moves it
  // over with its value instead of constructing a new one.
  ASSERT_NE(map.find(1), nullptr);
  EXPECT_EQ(*map.find(1), 10);
  EXPECT_EQ(map.touch(1, 99), 10);
  EXPECT_EQ(key_count(map), 1u);
  // Moved into the current generation, it survives the next rotation.
  map.rotate();
  ASSERT_NE(map.find(1), nullptr);
  EXPECT_EQ(*map.find(1), 10);
}

TEST(GenerationalMap, DropsThePreviousGenerationAtTheSecondRotation) {
  GenerationalMap<std::uint64_t, int> map;
  map.touch(1, 1);
  map.touch(2, 2);
  map.rotate();
  map.touch(2);  // written again: now current
  map.touch(3, 3);
  EXPECT_EQ(key_count(map), 3u);
  // A read does not move a key.
  ASSERT_NE(map.find(1), nullptr);
  map.rotate();
  EXPECT_EQ(map.find(1), nullptr);
  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(*map.find(2), 2);
  ASSERT_NE(map.find(3), nullptr);
  EXPECT_EQ(key_count(map), 2u);
  map.rotate();
  map.rotate();
  EXPECT_EQ(key_count(map), 0u);
  EXPECT_EQ(map.find(2), nullptr);
}

// Random touches, reads and rotations against a model that stamps each
// key with the generation it was last touched in and forgets a key two
// rotations after that touch: same keys, same values, and for_each visits
// each key exactly once.
TEST(GenerationalMap, VisitsEachKeyOnce) {
  Rng rng(0x6E4E4A7EULL);
  GenerationalMap<std::uint64_t, std::uint64_t> map;
  std::map<std::uint64_t, std::pair<std::uint64_t, int>> model;
  int generation = 0;
  for (int op = 0; op < 60000; ++op) {
    const auto key = rng.below(512);
    const auto roll = rng.below(100);
    if (roll < 1) {
      map.rotate();
      ++generation;
      std::erase_if(model, [generation](const auto& kv) {
        return kv.second.second < generation - 1;
      });
    } else if (roll < 60) {
      const auto value = rng();
      map.touch(key, value) = value;
      model[key] = {value, generation};
    } else {
      const auto* found = map.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end()) << "key " << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second.first) << "key " << key;
      }
    }
    if (op % 997 == 0) {
      std::map<std::uint64_t, int> visits;
      map.for_each([&](std::uint64_t k, std::uint64_t v) {
        ++visits[k];
        const auto it = model.find(k);
        ASSERT_NE(it, model.end()) << "key " << k;
        EXPECT_EQ(v, it->second.first);
      });
      ASSERT_EQ(visits.size(), model.size());
      for (const auto& [k, n] : visits) EXPECT_EQ(n, 1) << "key " << k;
      ASSERT_EQ(key_count(map), model.size());
    }
  }
}

}  // namespace
}  // namespace piggyweb::util
