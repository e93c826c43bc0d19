// Negative fixture (analyzed as src/core/clean.cc): hot-module code that
// follows every rule — FlatMap with re-lookup after mutation, no
// wall-clock or unordered containers. Expected findings: none.
#include <cstddef>
#include <vector>

#include "util/expect.h"
#include "util/flat_map.h"

namespace piggyweb::core {

class CleanTable {
 public:
  unsigned value_at(std::size_t index) const {
    PW_EXPECT_BOUNDS(index, order_.size());
    return order_[index];
  }

  void bump(unsigned key) {
    auto [it, inserted] = counts_.try_emplace(key, 0u);
    ++it->second;
    if (inserted) order_.push_back(key);
  }

  unsigned count_of(unsigned key) const {
    const auto it = counts_.find(key);
    return it == counts_.end() ? 0u : it->second;
  }

 private:
  util::FlatMap<unsigned, unsigned> counts_;
  std::vector<unsigned> order_;  // deterministic insertion order
};

}  // namespace piggyweb::core
