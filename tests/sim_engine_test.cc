// The topology-general engine: structural helpers, a depth-3 multi-origin
// tree driven by a client-trace workload (many origin servers), request
// conservation across the node graph, piggyback relay reaching every
// cache level, per-link cost accounting, and the informed-fetch replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/engine.h"
#include "trace/profiles.h"

namespace piggyweb {
namespace {

const trace::SyntheticWorkload& client_workload() {
  // AT&T client-trace profile: requests spread over many origin servers,
  // exercising the multi-origin side of the engine.
  static const trace::SyntheticWorkload workload =
      trace::generate(trace::att_client_profile(0.02));
  return workload;
}

sim::UniformTreeSpec tree_spec(int depth, int fanout) {
  sim::UniformTreeSpec spec;
  spec.depth = depth;
  spec.fanout = fanout;
  spec.leaf_cache.capacity_bytes = 2ULL * 1024 * 1024;
  spec.leaf_cache.freshness_interval = 2 * util::kHour;
  spec.root_cache.capacity_bytes = 32ULL * 1024 * 1024;
  spec.root_cache.freshness_interval = 2 * util::kHour;
  spec.base_filter.max_elements = 20;
  return spec;
}

sim::EngineConfig engine_config() {
  sim::EngineConfig config;
  config.volumes.level = 1;
  return config;
}

TEST(SimulationEngine, DepthThreeMultiOriginTree) {
  auto spec = tree_spec(3, 2);
  spec.origin_link = net::NetworkConfig{};
  const auto topology = sim::uniform_tree_topology(spec);
  sim::SimulationEngine engine(client_workload(), topology, engine_config());
  const auto result = engine.run();

  EXPECT_EQ(result.client_requests, client_workload().trace.size());
  EXPECT_GT(result.server_contacts, 0u);
  // Client traces hit many origin sites; the center tracks one volume
  // directory per server.
  EXPECT_GT(result.center.servers_tracked, 1u);

  // Conservation: every request is unresolved, served at some node, or
  // reaches an origin.
  EXPECT_EQ(result.client_requests,
            result.unresolved + result.total_fresh_hits() +
                result.server_contacts);

  // All three levels participate: leaves serve their clients, inner and
  // root levels serve walk-ups.
  ASSERT_EQ(result.nodes.size(), 7u);
  EXPECT_GT(result.leaf_fresh_hits(), 0u);
  EXPECT_GT(result.root_fresh_hits(), 0u);

  // The relay carries each origin piggyback down the request path, so
  // every depth sees coherency traffic.
  for (int depth = 0; depth < 3; ++depth) {
    std::uint64_t processed = 0;
    for (const auto& node : result.nodes) {
      if (node.depth == depth) processed += node.coherency.piggybacks_processed;
    }
    EXPECT_GT(processed, 0u) << "no piggybacks at depth " << depth;
  }

  // Only the root has a cost-accounted link in this tree.
  EXPECT_GT(result.connections.opened, 0u);
  EXPECT_GT(result.user_latency_sum, 0.0);
  EXPECT_GT(result.total_packets, 0u);
}

TEST(SimulationEngine, RelayOffKeepsLowerLevelsCold) {
  auto topology = sim::uniform_tree_topology(tree_spec(3, 2));
  topology.relay_to_descendants = false;
  sim::SimulationEngine engine(client_workload(), topology, engine_config());
  const auto result = engine.run();
  for (const auto& node : result.nodes) {
    if (node.depth > 0) {
      EXPECT_EQ(node.coherency.piggybacks_processed, 0u) << node.name;
    }
  }
  EXPECT_GT(result.merged_root_coherency().piggybacks_processed, 0u);
}

TEST(SimulationEngine, DeeperTreesServeMoreLocally) {
  // Sanity on the sweep dimension: adding cache levels must not increase
  // origin contacts (every level can only absorb more requests).
  auto flat_spec = tree_spec(1, 1);
  const auto flat =
      sim::SimulationEngine(client_workload(),
                            sim::uniform_tree_topology(flat_spec),
                            engine_config())
          .run();
  const auto deep =
      sim::SimulationEngine(client_workload(),
                            sim::uniform_tree_topology(tree_spec(3, 2)),
                            engine_config())
          .run();
  EXPECT_LE(deep.server_contacts,
            flat.server_contacts + flat.server_contacts / 10);
}

TEST(SimulationEngine, UnknownHostsAndNonSitePathsAreUnresolved) {
  // A host without a site model and a path its site does not serve pass
  // through unmodeled: counted, never cached, never seen by the center.
  auto workload = client_workload();
  const auto& last = workload.trace.requests().back();
  const std::string known_host(workload.trace.servers().str(last.server));
  const auto t = last.time.value;
  workload.trace.add({t + 1}, "client", "unknown.example", "/index.html");
  workload.trace.add({t + 2}, "client", known_host, "/not/on/the/site.html");
  const auto topology = sim::uniform_tree_topology(tree_spec(1, 2));
  const auto base =
      sim::SimulationEngine(client_workload(), topology, engine_config())
          .run();
  const auto result =
      sim::SimulationEngine(workload, topology, engine_config()).run();

  EXPECT_EQ(result.client_requests, base.client_requests + 2);
  EXPECT_EQ(result.unresolved, base.unresolved + 2);
  EXPECT_EQ(result.server_contacts, base.server_contacts);
  EXPECT_EQ(result.center.exchanges_observed,
            base.center.exchanges_observed);
  EXPECT_EQ(result.center.elements_injected, base.center.elements_injected);
}

TEST(SimulationEngine, InformedFetchSchedules) {
  trace::LogProfile profile = trace::aiusa_profile(0.05);
  const auto workload = trace::generate(profile);
  sim::ProxyNodeSpec proxy;
  proxy.cache.capacity_bytes = 16ULL * 1024 * 1024;
  proxy.cache.freshness_interval = 2 * util::kHour;
  proxy.base_filter.max_elements = 20;
  proxy.link = net::NetworkConfig{};
  proxy.enable_informed_fetch = true;
  const auto result =
      sim::SimulationEngine(workload, sim::Topology{{proxy}}, engine_config())
          .run();
  const auto& node = result.nodes[0];

  ASSERT_TRUE(node.fetch_schedule.has_value());
  ASSERT_TRUE(node.fetch_schedule_fifo.has_value());
  EXPECT_EQ(node.fetch_schedule->completion_by_id.size(),
            result.server_contacts);
  // Shortest-first cannot do worse than FIFO on mean waiting time (§4).
  EXPECT_LE(node.fetch_schedule->mean_wait,
            node.fetch_schedule_fifo->mean_wait);
  // Without the flag the optionals stay empty.
  proxy.enable_informed_fetch = false;
  const auto off =
      sim::SimulationEngine(workload, sim::Topology{{proxy}}, engine_config())
          .run();
  EXPECT_FALSE(off.nodes[0].fetch_schedule.has_value());
}

}  // namespace
}  // namespace piggyweb
