// Structural tests for declarative topologies: validation, depth/leaf/root
// queries, and the uniform-tree generator.
#include <gtest/gtest.h>

#include "sim/topology.h"

namespace piggyweb {
namespace {

sim::UniformTreeSpec tree_spec(int depth, int fanout) {
  sim::UniformTreeSpec spec;
  spec.depth = depth;
  spec.fanout = fanout;
  spec.leaf_cache.capacity_bytes = 2ULL * 1024 * 1024;
  spec.root_cache.capacity_bytes = 32ULL * 1024 * 1024;
  return spec;
}

TEST(Topology, UniformTreeShapes) {
  // depth 1: a single origin-facing proxy that is both root and leaf.
  const auto single = sim::uniform_tree_topology(tree_spec(1, 4));
  EXPECT_EQ(single.nodes.size(), 1u);
  EXPECT_EQ(single.nodes[0].parent, -1);
  EXPECT_EQ(sim::leaf_indices(single), std::vector<int>{0});
  EXPECT_EQ(sim::root_indices(single), std::vector<int>{0});

  // depth 3, fanout 2: 1 + 2 + 4 nodes.
  const auto tree = sim::uniform_tree_topology(tree_spec(3, 2));
  sim::validate_topology(tree);
  ASSERT_EQ(tree.nodes.size(), 7u);
  EXPECT_EQ(sim::depth_of(tree, 0), 0);
  EXPECT_EQ(sim::root_indices(tree), std::vector<int>{0});
  const auto leaves = sim::leaf_indices(tree);
  ASSERT_EQ(leaves.size(), 4u);
  for (const int leaf : leaves) EXPECT_EQ(sim::depth_of(tree, leaf), 2);
  // Root faces the origins behind one aggregated source id.
  EXPECT_TRUE(tree.nodes[0].upstream_source.has_value());
  // Capacity interpolates from root down to leaves.
  EXPECT_EQ(tree.nodes[0].cache.capacity_bytes, 32ULL * 1024 * 1024);
  EXPECT_EQ(
      tree.nodes[static_cast<std::size_t>(leaves[0])].cache.capacity_bytes,
      2ULL * 1024 * 1024);
}

TEST(Topology, UniformTreeDepthFour) {
  const auto tree = sim::uniform_tree_topology(tree_spec(4, 3));
  sim::validate_topology(tree);
  EXPECT_EQ(tree.nodes.size(), 1u + 3u + 9u + 27u);
  EXPECT_EQ(sim::leaf_indices(tree).size(), 27u);
  // Inner levels interpolate strictly between the endpoint capacities.
  const auto mid = tree.nodes[1].cache.capacity_bytes;  // depth-1 node
  EXPECT_LT(mid, tree.nodes[0].cache.capacity_bytes);
  EXPECT_GT(mid, 2ULL * 1024 * 1024);
}

TEST(Topology, UniformTreeEndLevelsTakeTheirCapacityExactly) {
  // root * (leaf / root) truncates to leaf - 1 for this pair in doubles;
  // the leaf level must still get its spec's capacity to the byte.
  for (const int depth : {2, 3, 4}) {
    SCOPED_TRACE(depth);
    auto spec = tree_spec(depth, 2);
    spec.root_cache.capacity_bytes = 22'000'000;
    spec.leaf_cache.capacity_bytes = 15'000'000;
    const auto tree = sim::uniform_tree_topology(spec);
    EXPECT_EQ(tree.nodes[0].cache.capacity_bytes, 22'000'000u);
    for (const int leaf : sim::leaf_indices(tree)) {
      EXPECT_EQ(
          tree.nodes[static_cast<std::size_t>(leaf)].cache.capacity_bytes,
          15'000'000u);
    }
  }
}

TEST(Topology, ForestWithTwoRoots) {
  sim::Topology forest;
  forest.nodes.resize(4);
  forest.nodes[0].parent = -1;
  forest.nodes[1].parent = -1;
  forest.nodes[2].parent = 0;
  forest.nodes[3].parent = 1;
  sim::validate_topology(forest);
  EXPECT_EQ(sim::root_indices(forest), (std::vector<int>{0, 1}));
  EXPECT_EQ(sim::leaf_indices(forest), (std::vector<int>{2, 3}));
  EXPECT_EQ(sim::depth_of(forest, 3), 1);
}

TEST(Topology, ValidateRejectsCycle) {
  sim::Topology bad;
  bad.nodes.resize(2);
  bad.nodes[0].parent = 1;
  bad.nodes[1].parent = 0;
  EXPECT_DEATH(sim::validate_topology(bad), "");
}

TEST(Topology, ValidateRejectsOutOfRangeParent) {
  sim::Topology bad;
  bad.nodes.resize(1);
  bad.nodes[0].parent = 5;
  EXPECT_DEATH(sim::validate_topology(bad), "");
}

}  // namespace
}  // namespace piggyweb
