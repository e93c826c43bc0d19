#include "sim/topology.h"

#include <cmath>

#include "util/expect.h"

namespace piggyweb::sim {

void validate_topology(const Topology& topology) {
  const auto n = static_cast<int>(topology.nodes.size());
  PW_EXPECT(n > 0);
  for (int i = 0; i < n; ++i) {
    const int parent = topology.nodes[static_cast<std::size_t>(i)].parent;
    PW_EXPECT(parent >= -1 && parent < n);
    PW_EXPECT(parent != i);
  }
  // Walking parent pointers from any node must reach a root within n
  // hops; a longer walk means a cycle.
  for (int i = 0; i < n; ++i) {
    int node = i;
    int hops = 0;
    while (topology.nodes[static_cast<std::size_t>(node)].parent != -1) {
      node = topology.nodes[static_cast<std::size_t>(node)].parent;
      PW_EXPECT(++hops <= n);
    }
  }
}

int depth_of(const Topology& topology, int node) {
  int depth = 0;
  while (topology.nodes[static_cast<std::size_t>(node)].parent != -1) {
    node = topology.nodes[static_cast<std::size_t>(node)].parent;
    ++depth;
  }
  return depth;
}

std::vector<int> leaf_indices(const Topology& topology) {
  const auto n = topology.nodes.size();
  std::vector<bool> has_child(n, false);
  for (const auto& node : topology.nodes) {
    if (node.parent != -1) has_child[static_cast<std::size_t>(node.parent)] = true;
  }
  std::vector<int> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    if (!has_child[i]) leaves.push_back(static_cast<int>(i));
  }
  return leaves;
}

std::vector<int> root_indices(const Topology& topology) {
  std::vector<int> roots;
  for (std::size_t i = 0; i < topology.nodes.size(); ++i) {
    if (topology.nodes[i].parent == -1) roots.push_back(static_cast<int>(i));
  }
  return roots;
}

Topology uniform_tree_topology(const UniformTreeSpec& spec) {
  PW_EXPECT(spec.depth >= 1);
  PW_EXPECT(spec.fanout >= 1);
  Topology topology;

  const double root_cap =
      static_cast<double>(spec.root_cache.capacity_bytes);
  const double leaf_cap =
      static_cast<double>(spec.leaf_cache.capacity_bytes);

  // Level by level; nodes of level l-1 are the parents of level l.
  std::vector<int> previous_level;
  for (int level = 0; level < spec.depth; ++level) {
    const bool is_leaf_level = level == spec.depth - 1;
    proxy::CacheConfig cache = is_leaf_level ? spec.leaf_cache
                                             : spec.root_cache;
    // Only inner levels interpolate: the truncated product can miss an
    // end's capacity by a byte.
    if (level > 0 && !is_leaf_level) {
      const double t = static_cast<double>(level) /
                       static_cast<double>(spec.depth - 1);
      cache.capacity_bytes = static_cast<std::uint64_t>(
          root_cap * std::pow(leaf_cap / root_cap, t));
    }
    std::vector<int> current_level;
    const std::size_t parents = level == 0 ? 1 : previous_level.size();
    for (std::size_t p = 0; p < parents; ++p) {
      const int fan = level == 0 ? 1 : spec.fanout;
      for (int c = 0; c < fan; ++c) {
        ProxyNodeSpec node;
        node.name = level == 0
                        ? "root"
                        : std::string("l").append(std::to_string(level)) +
                              "." + std::to_string(current_level.size());
        node.parent = level == 0 ? -1 : previous_level[p];
        node.cache = cache;
        node.enable_coherency = spec.enable_coherency;
        node.base_filter = spec.base_filter;
        node.rpv = spec.rpv;
        if (level == 0) {
          node.link = spec.origin_link;
          // The origins see the root proxy as one aggregated client.
          node.upstream_source = 0xfffffff0u;
        }
        current_level.push_back(static_cast<int>(topology.nodes.size()));
        topology.nodes.push_back(std::move(node));
      }
    }
    previous_level = std::move(current_level);
  }
  return topology;
}

}  // namespace piggyweb::sim
