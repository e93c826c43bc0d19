// §5's two-level hierarchy on the simulation engine: child proxies near
// the clients under one parent that faces the origins (a depth-2
// uniform_tree_topology), with piggybacks relayed to the children unless
// relay_to_descendants is off.
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "trace/profiles.h"

namespace piggyweb::sim {
namespace {

const trace::SyntheticWorkload& shared_workload() {
  static const trace::SyntheticWorkload workload =
      trace::generate(trace::aiusa_profile(0.05));
  return workload;
}

Topology two_level(int children, bool relay = true) {
  UniformTreeSpec spec;
  spec.depth = 2;
  spec.fanout = children;
  spec.leaf_cache.capacity_bytes = 2ULL * 1024 * 1024;
  spec.leaf_cache.freshness_interval = 2 * util::kHour;
  spec.root_cache.capacity_bytes = 32ULL * 1024 * 1024;
  spec.root_cache.freshness_interval = 2 * util::kHour;
  spec.base_filter.max_elements = 20;
  auto topology = uniform_tree_topology(spec);
  topology.relay_to_descendants = relay;
  return topology;
}

EngineResult run(const Topology& topology, bool piggybacking = true) {
  EngineConfig engine;
  engine.volumes.level = 1;
  engine.piggybacking = piggybacking;
  return SimulationEngine(shared_workload(), topology, engine).run();
}

TEST(Hierarchy, ProcessesWholeTrace) {
  const auto result = run(two_level(4));
  EXPECT_EQ(result.client_requests, shared_workload().trace.size());
  EXPECT_EQ(result.client_requests,
            result.leaf_fresh_hits() + result.root_fresh_hits() +
                result.server_contacts);
}

TEST(Hierarchy, ParentAbsorbsChildMisses) {
  const auto result = run(two_level(4));
  EXPECT_GT(result.leaf_fresh_hits(), 0u);
  EXPECT_GT(result.root_fresh_hits(), 0u);
  EXPECT_GT(result.overall_hit_rate(), result.leaf_hit_rate());
  EXPECT_LT(result.server_contact_rate(), 1.0);
}

TEST(Hierarchy, PiggybackingReachesBothLevels) {
  const auto result = run(two_level(4, /*relay=*/true));
  EXPECT_GT(result.merged_root_coherency().piggybacks_processed, 0u);
  EXPECT_GT(result.merged_leaf_coherency().piggybacks_processed, 0u);
  EXPECT_GT(result.merged_root_coherency().refreshed, 0u);
}

TEST(Hierarchy, RelayOffKeepsChildrenDark) {
  const auto result = run(two_level(4, /*relay=*/false));
  EXPECT_EQ(result.merged_leaf_coherency().piggybacks_processed, 0u);
  EXPECT_GT(result.merged_root_coherency().piggybacks_processed, 0u);
}

TEST(Hierarchy, PiggybackingOffMeansNoCoherency) {
  const auto result = run(two_level(4), /*piggybacking=*/false);
  EXPECT_EQ(result.merged_root_coherency().piggybacks_processed, 0u);
  EXPECT_EQ(result.merged_leaf_coherency().piggybacks_processed, 0u);
}

TEST(Hierarchy, PiggybackingCutsServerContacts) {
  const auto without = run(two_level(4), /*piggybacking=*/false);
  const auto with = run(two_level(4));
  // Parent-level refreshes avoid upstream validations, so the origin
  // sees fewer requests.
  EXPECT_LT(with.server_contacts, without.server_contacts);
}

TEST(Hierarchy, MoreChildrenDiluteChildHitRate) {
  const auto one = run(two_level(1));
  const auto sixteen = run(two_level(16));
  // One big child sees all cross-client locality; sixteen small ones
  // fragment it.
  EXPECT_GE(one.leaf_hit_rate(), sixteen.leaf_hit_rate());
}

}  // namespace
}  // namespace piggyweb::sim
