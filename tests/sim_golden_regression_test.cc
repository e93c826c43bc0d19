// Golden regression for the simulation engine: every counter of §4's
// single-proxy shape and §5's two-level hierarchy for fixed seeds and
// configs, captured from the separate simulators that preceded the engine
// and asserted exactly — including bit-exact latency doubles. Each case
// builds its Topology the way callers do (one ProxyNodeSpec with a
// cost-accounted link; uniform_tree_topology at depth 2 with free links),
// so any drift here means the engine changed observable semantics.
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "trace/profiles.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggyweb {
namespace {

const trace::SyntheticWorkload& shared_workload() {
  static const trace::SyntheticWorkload workload =
      trace::generate(trace::aiusa_profile(0.05));
  return workload;
}

// Probability volumes trained on the workload itself: their piggyback
// elements carry implication probabilities, which GD-Size-Hint reads.
const volume::ProbabilityVolumeSet& shared_probability_volumes() {
  static const volume::ProbabilityVolumeSet set = [] {
    volume::PairCounterConfig pcc;
    pcc.window = 300;
    const auto counts =
        volume::PairCounterBuilder(pcc).build(shared_workload().trace, 10);
    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = 0.2;
    pvc.effectiveness_threshold = 0.2;
    return volume::build_probability_volumes(shared_workload().trace, counts,
                                             pvc);
  }();
  return set;
}

// §4: the clients behind one proxy whose cost-accounted link faces the
// origin.
sim::ProxyNodeSpec e2e_proxy() {
  sim::ProxyNodeSpec proxy;
  proxy.name = "proxy";
  proxy.cache.capacity_bytes = 16ULL * 1024 * 1024;
  proxy.cache.freshness_interval = 2 * util::kHour;
  proxy.base_filter.max_elements = 20;
  proxy.rpv.timeout = 60;
  proxy.link = net::NetworkConfig{};
  return proxy;
}

sim::EngineConfig engine_base() {
  sim::EngineConfig engine;
  engine.volumes.level = 1;
  return engine;
}

sim::EngineResult run_e2e(const sim::ProxyNodeSpec& proxy,
                          const sim::EngineConfig& engine = engine_base()) {
  return sim::SimulationEngine(shared_workload(), sim::Topology{{proxy}},
                               engine)
      .run();
}

// §5: `children` child proxies under one parent, free links.
sim::Topology hier_topology(int children) {
  sim::UniformTreeSpec spec;
  spec.depth = 2;
  spec.fanout = children;
  spec.leaf_cache.capacity_bytes = 2ULL * 1024 * 1024;
  spec.leaf_cache.freshness_interval = 2 * util::kHour;
  spec.root_cache.capacity_bytes = 32ULL * 1024 * 1024;
  spec.root_cache.freshness_interval = 2 * util::kHour;
  spec.base_filter.max_elements = 20;
  spec.rpv.timeout = 60;
  return sim::uniform_tree_topology(spec);
}

sim::EngineResult run_hier(const sim::Topology& topology,
                           const sim::EngineConfig& engine = engine_base()) {
  return sim::SimulationEngine(shared_workload(), topology, engine).run();
}

struct E2eGolden {
  std::uint64_t server_contacts, validations, validations_not_modified;
  std::uint64_t stale_served, piggyback_bytes, body_bytes, total_packets;
  double user_latency_sum, prefetch_latency_sum;
  std::uint64_t fresh_hits, stale_hits, misses, insertions;
  std::uint64_t piggyback_refreshes, piggyback_invalidations;
  std::uint64_t coh_piggybacks, coh_elements, coh_refreshed, coh_invalidated,
      coh_not_cached;
  std::uint64_t prefetch_issued, prefetch_useful, prefetch_futile,
      prefetch_bytes;
  std::uint64_t pcv_batches, pcv_items, pcv_freshened, pcv_invalidated;
  std::uint64_t conn_opened, conn_reused;
  std::uint64_t center_exchanges, center_piggybacks, center_elements,
      center_servers;
};

void expect_e2e(const sim::EngineResult& r, const E2eGolden& g) {
  ASSERT_EQ(r.nodes.size(), 1u);
  const auto& proxy = r.nodes[0];
  EXPECT_EQ(r.client_requests, 9035u);
  EXPECT_EQ(r.server_contacts, g.server_contacts);
  EXPECT_EQ(r.validations, g.validations);
  EXPECT_EQ(r.validations_not_modified, g.validations_not_modified);
  EXPECT_EQ(r.stale_served, g.stale_served);
  EXPECT_EQ(r.piggyback_bytes, g.piggyback_bytes);
  EXPECT_EQ(r.body_bytes, g.body_bytes);
  EXPECT_EQ(r.total_packets, g.total_packets);
  EXPECT_EQ(r.user_latency_sum, g.user_latency_sum);  // bit-exact
  EXPECT_EQ(r.prefetch_latency_sum, g.prefetch_latency_sum);
  EXPECT_EQ(proxy.cache.lookups, 9035u);
  EXPECT_EQ(proxy.cache.fresh_hits, g.fresh_hits);
  EXPECT_EQ(proxy.cache.stale_hits, g.stale_hits);
  EXPECT_EQ(proxy.cache.misses, g.misses);
  EXPECT_EQ(proxy.cache.insertions, g.insertions);
  EXPECT_EQ(proxy.cache.evictions, 0u);
  EXPECT_EQ(proxy.cache.piggyback_refreshes, g.piggyback_refreshes);
  EXPECT_EQ(proxy.cache.piggyback_invalidations, g.piggyback_invalidations);
  EXPECT_EQ(proxy.coherency.piggybacks_processed, g.coh_piggybacks);
  EXPECT_EQ(proxy.coherency.elements_processed, g.coh_elements);
  EXPECT_EQ(proxy.coherency.refreshed, g.coh_refreshed);
  EXPECT_EQ(proxy.coherency.invalidated, g.coh_invalidated);
  EXPECT_EQ(proxy.coherency.not_cached, g.coh_not_cached);
  EXPECT_EQ(proxy.prefetch.issued, g.prefetch_issued);
  EXPECT_EQ(proxy.prefetch.useful, g.prefetch_useful);
  EXPECT_EQ(proxy.prefetch.futile, g.prefetch_futile);
  EXPECT_EQ(proxy.prefetch.bytes_fetched, g.prefetch_bytes);
  EXPECT_EQ(proxy.pcv.batches_sent, g.pcv_batches);
  EXPECT_EQ(proxy.pcv.items_sent, g.pcv_items);
  EXPECT_EQ(proxy.pcv.freshened, g.pcv_freshened);
  EXPECT_EQ(proxy.pcv.invalidated, g.pcv_invalidated);
  EXPECT_EQ(r.connections.opened, g.conn_opened);
  EXPECT_EQ(r.connections.reused, g.conn_reused);
  EXPECT_EQ(r.center.exchanges_observed, g.center_exchanges);
  EXPECT_EQ(r.center.piggybacks_injected, g.center_piggybacks);
  EXPECT_EQ(r.center.elements_injected, g.center_elements);
  EXPECT_EQ(r.center.servers_tracked, g.center_servers);
}

struct HierGolden {
  std::uint64_t child_fresh_hits, parent_fresh_hits, server_contacts,
      stale_served;
  std::uint64_t parent_piggybacks, parent_elements, parent_refreshed,
      parent_invalidated, parent_not_cached;
  std::uint64_t child_piggybacks, child_elements, child_refreshed,
      child_invalidated, child_not_cached;
};

void expect_hier(const sim::EngineResult& r, const HierGolden& g) {
  const auto parent = r.merged_root_coherency();
  const auto child = r.merged_leaf_coherency();
  EXPECT_EQ(r.client_requests, 9035u);
  EXPECT_EQ(r.leaf_fresh_hits(), g.child_fresh_hits);
  EXPECT_EQ(r.root_fresh_hits(), g.parent_fresh_hits);
  EXPECT_EQ(r.server_contacts, g.server_contacts);
  EXPECT_EQ(r.stale_served, g.stale_served);
  EXPECT_EQ(parent.piggybacks_processed, g.parent_piggybacks);
  EXPECT_EQ(parent.elements_processed, g.parent_elements);
  EXPECT_EQ(parent.refreshed, g.parent_refreshed);
  EXPECT_EQ(parent.invalidated, g.parent_invalidated);
  EXPECT_EQ(parent.not_cached, g.parent_not_cached);
  EXPECT_EQ(child.piggybacks_processed, g.child_piggybacks);
  EXPECT_EQ(child.elements_processed, g.child_elements);
  EXPECT_EQ(child.refreshed, g.child_refreshed);
  EXPECT_EQ(child.invalidated, g.child_invalidated);
  EXPECT_EQ(child.not_cached, g.child_not_cached);
}

TEST(SimGoldenRegression, WorkloadSizePinned) {
  EXPECT_EQ(shared_workload().trace.size(), 9035u);
}

TEST(SimGoldenRegression, EndToEndDefault) {
  const auto result = run_e2e(e2e_proxy());
  E2eGolden g{};
  g.server_contacts = 1460;
  g.validations = 1209;
  g.validations_not_modified = 1174;
  g.stale_served = 35;
  g.piggyback_bytes = 572943;
  g.body_bytes = 2459677;
  g.total_packets = 6297;
  g.user_latency_sum = 316.28241882324158;
  g.prefetch_latency_sum = 0;
  g.fresh_hits = 7575;
  g.stale_hits = 1209;
  g.misses = 251;
  g.insertions = 286;
  g.piggyback_refreshes = 15098;
  g.piggyback_invalidations = 167;
  g.coh_piggybacks = 1228;
  g.coh_elements = 15577;
  g.coh_refreshed = 15098;
  g.coh_invalidated = 167;
  g.coh_not_cached = 312;
  g.conn_opened = 846;
  g.conn_reused = 614;
  g.center_exchanges = 1460;
  g.center_piggybacks = 1228;
  g.center_elements = 15577;
  g.center_servers = 1;
  expect_e2e(result, g);
}

TEST(SimGoldenRegression, EndToEndPiggybackingOff) {
  auto engine = engine_base();
  engine.piggybacking = false;
  const auto result = run_e2e(e2e_proxy(), engine);
  E2eGolden g{};
  g.server_contacts = 5670;
  g.validations = 5585;
  g.validations_not_modified = 5383;
  g.stale_served = 35;
  g.piggyback_bytes = 0;
  g.body_bytes = 2469335;
  g.total_packets = 15234;
  g.user_latency_sum = 981.54563217155976;
  g.prefetch_latency_sum = 0;
  g.fresh_hits = 3365;
  g.stale_hits = 5585;
  g.misses = 85;
  g.insertions = 287;
  g.conn_opened = 1173;
  g.conn_reused = 4497;
  g.center_exchanges = 5670;
  g.center_servers = 1;
  expect_e2e(result, g);
}

TEST(SimGoldenRegression, EndToEndAllApplications) {
  auto proxy = e2e_proxy();
  proxy.enable_prefetch = true;
  proxy.prefetch.max_resource_bytes = 64 * 1024;
  proxy.enable_pcv = true;
  proxy.enable_adaptive_ttl = true;
  proxy.min_piggyback_interval = 30;
  const auto result = run_e2e(proxy);
  E2eGolden g{};
  g.server_contacts = 1095;
  g.validations = 953;
  g.validations_not_modified = 915;
  g.stale_served = 66;
  g.piggyback_bytes = 889402;
  g.body_bytes = 2883125;
  g.total_packets = 6024;
  g.user_latency_sum = 237.53619918823404;
  g.prefetch_latency_sum = 51.349795532226516;
  g.fresh_hits = 7940;
  g.stale_hits = 953;
  g.misses = 142;
  g.insertions = 392;
  g.piggyback_refreshes = 8962;
  g.piggyback_invalidations = 269;
  g.coh_piggybacks = 713;
  g.coh_elements = 9175;
  g.coh_refreshed = 8962;
  g.coh_invalidated = 129;
  g.coh_not_cached = 84;
  g.prefetch_issued = 212;
  g.prefetch_useful = 25;
  g.prefetch_futile = 187;
  g.prefetch_bytes = 1045444;
  g.pcv_batches = 1017;
  g.pcv_items = 9803;
  g.pcv_freshened = 9663;
  g.pcv_invalidated = 140;
  g.conn_opened = 785;
  g.conn_reused = 522;
  g.center_exchanges = 1095;
  g.center_piggybacks = 713;
  g.center_elements = 9175;
  g.center_servers = 1;
  expect_e2e(result, g);
}

TEST(SimGoldenRegression, EndToEndProbabilityVolumes) {
  auto engine = engine_base();
  engine.probability_volumes = &shared_probability_volumes();
  const auto result = run_e2e(e2e_proxy(), engine);
  E2eGolden g{};
  g.server_contacts = 1655;
  g.validations = 1444;
  g.validations_not_modified = 1364;
  g.stale_served = 28;
  g.piggyback_bytes = 505024;
  g.body_bytes = 2516667;
  g.total_packets = 7035;
  g.user_latency_sum = 364.73950119018275;
  g.prefetch_latency_sum = 0;
  g.fresh_hits = 7380;
  g.stale_hits = 1444;
  g.misses = 211;
  g.insertions = 291;
  g.piggyback_refreshes = 12398;
  g.piggyback_invalidations = 127;
  g.coh_piggybacks = 1592;
  g.coh_elements = 12816;
  g.coh_refreshed = 12398;
  g.coh_invalidated = 127;
  g.coh_not_cached = 291;
  g.conn_opened = 1037;
  g.conn_reused = 618;
  g.center_exchanges = 1655;
  g.center_piggybacks = 1592;
  g.center_elements = 12816;
  g.center_servers = 0;
  expect_e2e(result, g);
}

// Every golden above runs without an eviction. Here a 256 KB cache (a
// tenth of the body bytes) evicts under each replacement policy, and the
// probability volumes' piggybacks carry the hints GD-Size-Hint reads, so
// each policy's victim choice shows in its own counters.
TEST(SimGoldenRegression, ReplacementPoliciesUnderPressure) {
  struct PolicyGolden {
    proxy::ReplacementPolicy policy;
    std::uint64_t fresh_hits, stale_hits, misses, insertions, evictions;
    std::uint64_t piggyback_refreshes, piggyback_invalidations;
    std::uint64_t coh_piggybacks, coh_elements, coh_refreshed,
        coh_invalidated, coh_not_cached;
    double user_latency_sum;
  };
  const PolicyGolden goldens[] = {
      {proxy::ReplacementPolicy::kLru, 6670, 1000, 1365, 1430, 1191, 11491,
       99, 2088, 14687, 11491, 99, 3097, 508.99395065306402},
      {proxy::ReplacementPolicy::kSize, 7038, 1327, 670, 738, 461, 12656,
       126, 1820, 13893, 12656, 126, 1111, 465.97089843749279},
      {proxy::ReplacementPolicy::kGdSize, 7116, 1264, 655, 723, 455, 12110,
       118, 1760, 13603, 12110, 118, 1375, 444.480835723871},
      {proxy::ReplacementPolicy::kLruPiggyback, 6743, 983, 1309, 1368, 1136,
       11684, 97, 2076, 14533, 11684, 97, 2752, 497.56122512816285},
      {proxy::ReplacementPolicy::kGdSizeHint, 7215, 1220, 600, 652, 432,
       12484, 88, 1702, 13552, 12484, 88, 980, 425.55266723632326},
  };
  for (const auto& g : goldens) {
    SCOPED_TRACE(proxy::policy_name(g.policy));
    auto proxy = e2e_proxy();
    proxy.cache.capacity_bytes = 256 * 1024;
    proxy.cache.policy = g.policy;
    auto engine = engine_base();
    engine.probability_volumes = &shared_probability_volumes();
    const auto result = run_e2e(proxy, engine);
    const auto& r = result.nodes[0];
    EXPECT_EQ(r.cache.lookups, 9035u);
    EXPECT_EQ(r.cache.fresh_hits, g.fresh_hits);
    EXPECT_EQ(r.cache.stale_hits, g.stale_hits);
    EXPECT_EQ(r.cache.misses, g.misses);
    EXPECT_EQ(r.cache.insertions, g.insertions);
    EXPECT_EQ(r.cache.evictions, g.evictions);
    EXPECT_EQ(r.cache.piggyback_refreshes, g.piggyback_refreshes);
    EXPECT_EQ(r.cache.piggyback_invalidations, g.piggyback_invalidations);
    EXPECT_EQ(r.coherency.piggybacks_processed, g.coh_piggybacks);
    EXPECT_EQ(r.coherency.elements_processed, g.coh_elements);
    EXPECT_EQ(r.coherency.refreshed, g.coh_refreshed);
    EXPECT_EQ(r.coherency.invalidated, g.coh_invalidated);
    EXPECT_EQ(r.coherency.not_cached, g.coh_not_cached);
    EXPECT_EQ(result.user_latency_sum, g.user_latency_sum);  // bit-exact
  }
}

TEST(SimGoldenRegression, HierarchyDefault) {
  const auto result = run_hier(hier_topology(4));
  HierGolden g{};
  g.child_fresh_hits = 4877;
  g.parent_fresh_hits = 2696;
  g.server_contacts = 1462;
  g.stale_served = 39;
  g.parent_piggybacks = 1232;
  g.parent_elements = 15777;
  g.parent_refreshed = 15304;
  g.parent_invalidated = 166;
  g.parent_not_cached = 307;
  g.child_piggybacks = 1232;
  g.child_elements = 15777;
  g.child_refreshed = 13867;
  g.child_invalidated = 290;
  g.child_not_cached = 1620;
  expect_hier(result, g);
}

TEST(SimGoldenRegression, HierarchyNoRelay) {
  auto topology = hier_topology(4);
  topology.relay_to_descendants = false;
  const auto result = run_hier(topology);
  HierGolden g{};
  g.child_fresh_hits = 2004;
  g.parent_fresh_hits = 5572;
  g.server_contacts = 1459;
  g.stale_served = 40;
  g.parent_piggybacks = 1229;
  g.parent_elements = 15759;
  g.parent_refreshed = 15286;
  g.parent_invalidated = 166;
  g.parent_not_cached = 307;
  expect_hier(result, g);
}

TEST(SimGoldenRegression, HierarchyPiggybackingOff) {
  auto engine = engine_base();
  engine.piggybacking = false;
  const auto result = run_hier(hier_topology(4), engine);
  HierGolden g{};
  g.child_fresh_hits = 2004;
  g.parent_fresh_hits = 1430;
  g.server_contacts = 5601;
  g.stale_served = 38;
  expect_hier(result, g);
}

TEST(SimGoldenRegression, HierarchyWide) {
  const auto result = run_hier(hier_topology(16));
  HierGolden g{};
  g.child_fresh_hits = 3561;
  g.parent_fresh_hits = 4025;
  g.server_contacts = 1449;
  g.stale_served = 38;
  g.parent_piggybacks = 1216;
  g.parent_elements = 15441;
  g.parent_refreshed = 14964;
  g.parent_invalidated = 167;
  g.parent_not_cached = 310;
  g.child_piggybacks = 1216;
  g.child_elements = 15441;
  g.child_refreshed = 10550;
  g.child_invalidated = 578;
  g.child_not_cached = 4313;
  expect_hier(result, g);
}

}  // namespace
}  // namespace piggyweb
