// Fixture: FlatMap references/iterators held across mutations (analyzed
// as src/volume/flatmap_unsafe.cc). FlatMap invalidates everything on
// any mutation (rehash or backward-shift), so each pattern below is a
// flatmap-ref-after-mutate.
#include "util/flat_map.h"

namespace piggyweb::volume {

unsigned iterator_after_insert(util::FlatMap<unsigned, unsigned>& table) {
  auto it = table.find(7);
  table.insert({9, 9});
  return it->second;  // finding: `it` died at the insert
}

unsigned reference_after_erase(util::FlatMap<unsigned, unsigned>& table) {
  auto& slot = table.at(7);
  table.erase(3u);
  return slot;  // finding: `slot` died at the erase
}

void mutate_inside_range_for(util::FlatMap<unsigned, unsigned>& table) {
  for (const auto& [key, value] : table) {
    if (value == 0) {
      table.erase(key);  // finding: mutation under live loop iterators
    }
  }
}

unsigned safe_patterns(util::FlatMap<unsigned, unsigned>& table) {
  // The iterator returned by the mutating call itself is valid.
  auto [it, inserted] = table.try_emplace(5, 1);
  unsigned total = it->second;
  // A copy survives mutation.
  const auto value = table.at(5);
  table.insert({6, 6});
  total += value;
  // Re-looking up after the mutation is the sanctioned pattern.
  const auto again = table.find(5);
  total += again->second;
  return total;
}

unsigned reference_after_erase_if(util::FlatMap<unsigned, unsigned>& table) {
  auto& slot = table.at(7);
  table.erase_if([](const auto& kv) { return kv.second == 0; });
  return slot;  // finding: erase_if moves the survivors to a new allocation
}

}  // namespace piggyweb::volume
