#include "util/flat_map.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena.h"
#include "util/intern.h"
#include "util/rng.h"

namespace piggyweb::util {
namespace {

TEST(FlatMap, EmptyMap) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(0), map.end());
  EXPECT_EQ(map.find(~0ULL), map.end());
  EXPECT_FALSE(map.contains(42));
  EXPECT_EQ(map.erase(42), 0u);
  EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, std::string> map;
  EXPECT_TRUE(map.try_emplace(1, "one").second);
  EXPECT_FALSE(map.try_emplace(1, "uno").second);
  EXPECT_EQ(map.at(1), "one");
  map[2] = "two";
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(2)->second, "two");
  EXPECT_EQ(map.erase(1), 1u);
  EXPECT_EQ(map.erase(1), 0u);
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.at(2), "two");
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<std::uint32_t, std::uint64_t> map;
  EXPECT_EQ(map[7], 0u);
  map[7] += 3;
  map[7] += 4;
  EXPECT_EQ(map.at(7), 7u);
}

TEST(FlatMap, ZeroKeyAndMaxKeyAreValid) {
  FlatMap<std::uint64_t, int> map;
  map[0] = 10;
  map[~0ULL] = 20;
  EXPECT_EQ(map.at(0), 10);
  EXPECT_EQ(map.at(~0ULL), 20);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.erase(0), 1u);
  EXPECT_EQ(map.at(~0ULL), 20);
}

TEST(FlatMap, GrowthPreservesContents) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t i = 0; i < 10000; ++i) map[i] = i * 3;
  EXPECT_EQ(map.size(), 10000u);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(map.at(i), i * 3) << i;
  }
}

TEST(FlatMap, ClearKeepsCapacityAndEmpties) {
  FlatMap<std::uint64_t, int> map;
  for (std::uint64_t i = 0; i < 100; ++i) map[i] = 1;
  const auto buckets = map.bucket_count();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.bucket_count(), buckets);
  EXPECT_EQ(map.begin(), map.end());
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(map.contains(i));
  map[5] = 7;
  EXPECT_EQ(map.at(5), 7);
}

TEST(FlatMap, ReserveAvoidsRehash) {
  FlatMap<std::uint64_t, int> map;
  map.reserve(1000);
  const auto buckets = map.bucket_count();
  for (std::uint64_t i = 0; i < 1000; ++i) map[i] = 1;
  EXPECT_EQ(map.bucket_count(), buckets);
}

TEST(FlatMap, IterationVisitsEveryElementOnce) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    map[i * 977] = i;
    expected_sum += i;
  }
  std::uint64_t sum = 0;
  std::size_t n = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(map.at(key), value);
    sum += value;
    ++n;
  }
  EXPECT_EQ(n, 500u);
  EXPECT_EQ(sum, expected_sum);
}

TEST(FlatMap, EraseByIterator) {
  FlatMap<std::uint64_t, int> map;
  for (std::uint64_t i = 0; i < 64; ++i) map[i] = static_cast<int>(i);
  auto it = map.find(17);
  ASSERT_NE(it, map.end());
  map.erase(it);
  EXPECT_EQ(map.size(), 63u);
  EXPECT_FALSE(map.contains(17));
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (i != 17) {
      ASSERT_TRUE(map.contains(i)) << i;
    }
  }
}

TEST(FlatMap, CopyAndMoveSemantics) {
  FlatMap<std::uint64_t, std::string> map;
  map[1] = "a";
  map[2] = "b";

  FlatMap<std::uint64_t, std::string> copy(map);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.at(1), "a");
  copy[3] = "c";
  EXPECT_FALSE(map.contains(3));  // deep copy

  FlatMap<std::uint64_t, std::string> moved(std::move(copy));
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved.at(3), "c");

  FlatMap<std::uint64_t, std::string> assigned;
  assigned[9] = "old";
  assigned = map;
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_FALSE(assigned.contains(9));

  FlatMap<std::uint64_t, std::string> move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.size(), 3u);
  EXPECT_EQ(move_assigned.at(2), "b");
}

TEST(FlatMap, NonDefaultConstructibleValues) {
  struct NoDefault {
    explicit NoDefault(int x) : value(x) {}
    int value;
  };
  FlatMap<std::uint32_t, NoDefault> map;
  map.try_emplace(1, 42);
  map.try_emplace(2, 43);
  EXPECT_EQ(map.at(1).value, 42);
  EXPECT_EQ(map.at(2).value, 43);
  EXPECT_EQ(map.erase(1), 1u);
  EXPECT_EQ(map.at(2).value, 43);
}

// Backward-shift deletion edge case: a probe chain that wraps around the
// end of the table must stay reachable after erasing a member in the
// middle. Keys are crafted by brute force to share a home slot near the
// top of the minimum-capacity table.
TEST(FlatMap, BackwardShiftAcrossWraparound) {
  // Find keys whose home slot (in a 16-slot table) is 15, so their probe
  // chains wrap to slot 0.
  std::vector<std::uint64_t> colliders;
  for (std::uint64_t k = 0; colliders.size() < 5 && k < 2'000'000; ++k) {
    if ((mix64(k) & 15u) == 15u) colliders.push_back(k);
  }
  ASSERT_EQ(colliders.size(), 5u);

  FlatMap<std::uint64_t, std::uint64_t> map;
  for (const auto k : colliders) map[k] = k + 1;
  ASSERT_EQ(map.bucket_count(), 16u) << "test assumes min capacity 16";

  // Erase the chain head; the wrapped members must shift back and stay
  // findable.
  EXPECT_EQ(map.erase(colliders[0]), 1u);
  for (std::size_t i = 1; i < colliders.size(); ++i) {
    ASSERT_TRUE(map.contains(colliders[i])) << i;
    EXPECT_EQ(map.at(colliders[i]), colliders[i] + 1);
  }
  // Erase a middle member too.
  EXPECT_EQ(map.erase(colliders[2]), 1u);
  EXPECT_TRUE(map.contains(colliders[1]));
  EXPECT_TRUE(map.contains(colliders[3]));
  EXPECT_TRUE(map.contains(colliders[4]));
}

// The core correctness pin: a long randomized mixed workload must keep
// FlatMap and std::unordered_map in exact agreement, including under
// heavy erase churn (which exercises backward shift constantly).
TEST(FlatMap, RandomizedDifferentialAgainstUnorderedMap) {
  Rng rng(0xF1A7F1A7ULL);
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;

  // Small key space forces constant collisions, overwrites, and erases of
  // present keys; mixed with occasional huge keys for sparse probes.
  const auto random_key = [&rng]() -> std::uint64_t {
    return rng.chance(0.9) ? rng.below(512) : rng();
  };

  for (int op = 0; op < 200000; ++op) {
    const auto key = random_key();
    const auto roll = rng.uniform();
    if (roll < 0.40) {
      const auto value = rng();
      flat[key] = value;
      ref[key] = value;
    } else if (roll < 0.55) {
      flat[key] += 1;
      ref[key] += 1;
    } else if (roll < 0.70) {
      const auto inserted_flat = flat.try_emplace(key, op).second;
      const auto inserted_ref =
          ref.try_emplace(key, static_cast<std::uint64_t>(op)).second;
      ASSERT_EQ(inserted_flat, inserted_ref);
    } else if (roll < 0.90) {
      ASSERT_EQ(flat.erase(key), ref.erase(key));
    } else {
      const auto it_flat = flat.find(key);
      const auto it_ref = ref.find(key);
      ASSERT_EQ(it_flat == flat.end(), it_ref == ref.end());
      if (it_ref != ref.end()) {
        ASSERT_EQ(it_flat->second, it_ref->second);
      }
    }
    ASSERT_EQ(flat.size(), ref.size());

    // Periodically compare full contents via iteration both ways.
    if (op % 20000 == 19999) {
      std::size_t visited = 0;
      for (const auto& [k, v] : flat) {
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << k;
        ASSERT_EQ(v, it->second) << k;
        ++visited;
      }
      ASSERT_EQ(visited, ref.size());
      for (const auto& [k, v] : ref) {
        ASSERT_TRUE(flat.contains(k)) << k;
        ASSERT_EQ(flat.at(k), v) << k;
      }
    }
  }
}

// Same differential discipline, but with erase-heavy sliding-window churn
// so the table repeatedly fills, drains, and wraps.
TEST(FlatMap, SlidingWindowChurnDifferential) {
  Rng rng(0xBADC0FFEULL);
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  constexpr std::uint64_t kWindow = 300;
  for (std::uint64_t i = 0; i < 30000; ++i) {
    flat[i] = i;
    ref[i] = i;
    if (i >= kWindow) {
      ASSERT_EQ(flat.erase(i - kWindow), ref.erase(i - kWindow));
    }
    if (i % 1000 == 0) {
      const auto peek = rng.below(i + 1);
      ASSERT_EQ(flat.contains(peek), ref.contains(peek) != 0);
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  std::size_t visited = 0;
  for (const auto& [k, v] : flat) {
    ASSERT_EQ(ref.at(k), v);
    ++visited;
  }
  ASSERT_EQ(visited, ref.size());
}

// erase_if against std::erase_if over std::unordered_map: sweeps that
// remove nothing, everything, or a random share (the value's low bits
// against a per-sweep threshold), with insert/erase churn between them so
// every sweep starts from a table with a different probe layout.
TEST(FlatMap, EraseIfDifferentialAgainstStdEraseIf) {
  Rng rng(0xE1A5E1F5ULL);
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  const auto expect_same = [&] {
    ASSERT_EQ(flat.size(), ref.size());
    for (const auto& [k, v] : ref) {
      const auto it = flat.find(k);
      ASSERT_NE(it, flat.end()) << k;
      ASSERT_EQ(it->second, v) << k;
    }
    std::size_t visited = 0;
    for ([[maybe_unused]] const auto& kv : flat) ++visited;
    ASSERT_EQ(visited, ref.size());
  };

  for (int round = 0; round < 400; ++round) {
    const auto churn = rng.below(2000);
    for (std::uint64_t op = 0; op < churn; ++op) {
      const auto key = rng.chance(0.9) ? rng.below(4096) : rng();
      if (rng.chance(0.75)) {
        const auto value = rng();
        flat[key] = value;
        ref[key] = value;
      } else {
        ASSERT_EQ(flat.erase(key), ref.erase(key));
      }
    }
    expect_same();

    const auto kind = rng.below(3);
    const auto threshold = rng.below(1024);
    const auto pred = [kind, threshold](const auto& kv) {
      if (kind == 0) return false;
      if (kind == 1) return true;
      return (kv.second & 1023) < threshold;
    };
    const auto expected = std::erase_if(ref, pred);
    ASSERT_EQ(flat.erase_if(pred), expected);
    expect_same();
  }
}

TEST(FlatMap, EraseIfShrinksToTheSurvivors) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t k = 0; k < 10000; ++k) map[k] = k;
  const auto full = map.bucket_count();

  // Removing nothing keeps the allocation.
  EXPECT_EQ(map.erase_if([](const auto&) { return false; }), 0u);
  EXPECT_EQ(map.bucket_count(), full);

  // Ten survivors fit the minimum table.
  EXPECT_EQ(map.erase_if([](const auto& kv) { return kv.first >= 10; }),
            9990u);
  EXPECT_EQ(map.size(), 10u);
  EXPECT_LT(map.bucket_count(), full);
  EXPECT_EQ(map.bucket_count(), 16u);
  for (std::uint32_t k = 0; k < 10; ++k) EXPECT_EQ(map.at(k), k);

  // The table grows again from there, and an emptied one holds nothing.
  for (std::uint32_t k = 10; k < 100; ++k) map[k] = k;
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.erase_if([](const auto&) { return true; }), 100u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.bucket_count(), 0u);
  EXPECT_FALSE(map.contains(5));
  map[5] = 6;
  EXPECT_EQ(map.at(5), 6u);
}

// operator== is content equality: the probe layout, capacity, and the
// churn history that produced each side must not matter. The snapshot
// layer depends on this — a map rebuilt from serialized entries compares
// equal to the original.
TEST(FlatMap, EqualityIgnoresLayoutAndHistory) {
  FlatMap<std::uint32_t, std::uint64_t> a;
  FlatMap<std::uint32_t, std::uint64_t> b;
  b.reserve(4096);  // different capacity from the start
  EXPECT_TRUE(a == b);  // both empty

  // Fill a forward, and b with heavy insert/erase churn landing on the
  // same final contents via a different probe history.
  for (std::uint32_t k = 0; k < 500; ++k) a[k] = k * 3;
  for (std::uint32_t k = 500; k-- > 0;) b[k] = 1;       // reverse order
  for (std::uint32_t k = 0; k < 500; k += 2) b.erase(k);  // drain half
  for (std::uint32_t k = 0; k < 500; ++k) b[k] = k * 3;   // restore
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);

  b.at(123) = 0;  // one differing value
  EXPECT_FALSE(a == b);
  b.at(123) = 123 * 3;
  EXPECT_TRUE(a == b);

  b.erase(77);  // one missing key
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(b == a);
  b[77] = 77 * 3;
  EXPECT_TRUE(a == b);

  b[9999] = 1;  // one extra key
  EXPECT_FALSE(a == b);
}

TEST(FlatMap, EqualityComparesMappedValuesWithTheirOwnOperator) {
  FlatMap<std::uint32_t, std::string> a;
  FlatMap<std::uint32_t, std::string> b;
  a[1] = "x";
  b[1] = "x";
  EXPECT_TRUE(a == b);
  b[1] = "y";
  EXPECT_FALSE(a == b);
}

TEST(StringArena, StoresBytesWithStableViews) {
  StringArena arena;
  const auto a = arena.store("hello");
  const auto b = arena.store("world");
  // Force many chunk allocations; early views must stay intact.
  std::vector<std::string_view> views;
  for (int i = 0; i < 50000; ++i) {
    views.push_back(arena.store("/path/to/resource" + std::to_string(i)));
  }
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "world");
  for (int i = 0; i < 50000; ++i) {
    ASSERT_EQ(views[static_cast<std::size_t>(i)],
              "/path/to/resource" + std::to_string(i));
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  EXPECT_GE(arena.allocated_bytes(), arena.stored_bytes());
}

TEST(StringArena, OversizeStringGetsOwnChunk) {
  StringArena arena;
  const std::string big(256 * 1024, 'x');
  const auto view = arena.store(big);
  EXPECT_EQ(view.size(), big.size());
  EXPECT_EQ(view, big);
  const auto after = arena.store("small");
  EXPECT_EQ(after, "small");
}

TEST(StringArena, EmptyString) {
  StringArena arena;
  const auto v = arena.store("");
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(arena.stored_bytes(), 0u);
}

// Intern/arena round trip: every id must map back to exactly the bytes
// interned, across growth, and the arena must hold each string once.
TEST(InternArena, RoundTripSingleStorage) {
  InternTable table;
  std::vector<std::string> inputs;
  std::size_t total_bytes = 0;
  for (int i = 0; i < 20000; ++i) {
    inputs.push_back("/dir" + std::to_string(i % 97) + "/page" +
                     std::to_string(i) + ".html");
    total_bytes += inputs.back().size();
  }
  std::vector<InternId> ids;
  ids.reserve(inputs.size());
  for (const auto& s : inputs) ids.push_back(table.intern(s));

  // Re-interning returns the same ids and stores nothing new.
  const auto bytes_after_first_pass = table.arena_bytes();
  EXPECT_EQ(bytes_after_first_pass, total_bytes);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(table.intern(inputs[i]), ids[i]);
  }
  EXPECT_EQ(table.arena_bytes(), bytes_after_first_pass);

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(table.str(ids[i]), inputs[i]);
    ASSERT_EQ(table.find(inputs[i]), std::optional<InternId>(ids[i]));
  }
}

TEST(InternArena, CopyIsDeepAndIndependent) {
  InternTable table;
  const auto a = table.intern("/alpha.html");
  const auto b = table.intern("/beta.html");

  InternTable copy(table);
  EXPECT_EQ(copy.str(a), "/alpha.html");
  EXPECT_EQ(copy.str(b), "/beta.html");
  EXPECT_EQ(copy.size(), 2u);

  const auto c = copy.intern("/gamma.html");
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.find("/gamma.html").has_value());

  InternTable assigned;
  assigned.intern("/other.html");
  assigned = table;
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned.str(a), "/alpha.html");
  EXPECT_FALSE(assigned.find("/other.html").has_value());
}

TEST(InternArena, ReserveKeepsIdsAndLookups) {
  InternTable table;
  const auto a = table.intern("before-reserve");
  table.reserve(5000);
  EXPECT_EQ(table.str(a), "before-reserve");
  EXPECT_EQ(table.intern("before-reserve"), a);
  for (int i = 0; i < 5000; ++i) {
    table.intern(std::string("k").append(std::to_string(i)));
  }
  EXPECT_EQ(table.size(), 5001u);
  EXPECT_EQ(*table.find("k4999"), 5000u);
}

}  // namespace
}  // namespace piggyweb::util
