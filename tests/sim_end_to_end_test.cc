// §4's shape on the simulation engine: the trace's clients behind one
// proxy whose cost-accounted link faces the origin servers, with the
// volume center on that link. Each application's effect shows in the
// proxy's node counters (EngineResult::nodes[0]).
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "trace/profiles.h"

namespace piggyweb::sim {
namespace {

const trace::SyntheticWorkload& shared_workload() {
  static const trace::SyntheticWorkload workload = [] {
    auto profile = trace::aiusa_profile(0.05);
    return trace::generate(profile);
  }();
  return workload;
}

ProxyNodeSpec base_proxy() {
  ProxyNodeSpec proxy;
  proxy.name = "proxy";
  proxy.cache.capacity_bytes = 16ULL * 1024 * 1024;
  proxy.cache.freshness_interval = 2 * util::kHour;
  proxy.base_filter.max_elements = 20;
  proxy.link = net::NetworkConfig{};
  return proxy;
}

EngineConfig base_engine() {
  EngineConfig engine;
  engine.volumes.level = 1;
  return engine;
}

EngineResult run(const ProxyNodeSpec& proxy,
                 const EngineConfig& engine = base_engine()) {
  return SimulationEngine(shared_workload(), Topology{{proxy}}, engine).run();
}

TEST(EndToEnd, ProcessesWholeTrace) {
  const auto result = run(base_proxy());
  EXPECT_EQ(result.client_requests, shared_workload().trace.size());
  EXPECT_GT(result.nodes[0].cache.lookups, 0u);
  EXPECT_GT(result.server_contacts, 0u);
  EXPECT_LE(result.server_contacts, result.client_requests);
}

TEST(EndToEnd, CacheAbsorbsTraffic) {
  const auto result = run(base_proxy());
  const auto& cache = result.nodes[0].cache;
  // Fresh hits never contact the server.
  EXPECT_EQ(result.client_requests, result.server_contacts + cache.fresh_hits);
  EXPECT_GT(cache.hit_rate(), 0.1);
}

TEST(EndToEnd, PiggybackingProducesCoherencyWork) {
  auto proxy = base_proxy();
  proxy.enable_coherency = true;
  const auto result = run(proxy);
  const auto& coherency = result.nodes[0].coherency;
  EXPECT_GT(result.center.piggybacks_injected, 0u);
  EXPECT_GT(coherency.piggybacks_processed, 0u);
  EXPECT_GT(coherency.refreshed + coherency.not_cached, 0u);
  EXPECT_GT(result.piggyback_bytes, 0u);
}

TEST(EndToEnd, BaselineHasNoPiggybackTraffic) {
  auto engine = base_engine();
  engine.piggybacking = false;
  const auto result = run(base_proxy(), engine);
  EXPECT_EQ(result.center.piggybacks_injected, 0u);
  EXPECT_EQ(result.piggyback_bytes, 0u);
  EXPECT_EQ(result.nodes[0].coherency.piggybacks_processed, 0u);
}

TEST(EndToEnd, CoherencyReducesStaleServes) {
  auto off = base_engine();
  off.piggybacking = false;
  const auto base_result = run(base_proxy(), off);

  auto proxy = base_proxy();
  proxy.enable_coherency = true;
  const auto piggy_result = run(proxy);

  // Piggyback coherency serves many more requests from fresh cache
  // entries, so compare staleness per fresh hit: the rate must not rise
  // (invalidation drops changed copies a priori; refreshes only extend
  // entries verified current at refresh time).
  EXPECT_LE(piggy_result.stale_rate(), base_result.stale_rate() + 1e-4);
  EXPECT_GT(piggy_result.nodes[0].cache.fresh_hits,
            base_result.nodes[0].cache.fresh_hits);
}

TEST(EndToEnd, PrefetchingFindsUsefulWork) {
  auto proxy = base_proxy();
  proxy.enable_prefetch = true;
  proxy.prefetch.max_resource_bytes = 64 * 1024;
  proxy.prefetch.budget_bytes_per_piggyback = 256 * 1024;
  const auto result = run(proxy);
  EXPECT_GT(result.nodes[0].prefetch.issued, 0u);
  EXPECT_GT(result.nodes[0].prefetch.useful, 0u);
}

TEST(EndToEnd, PrefetchingRaisesHitRate) {
  const auto plain_result = run(base_proxy());

  auto proxy = base_proxy();
  proxy.enable_prefetch = true;
  const auto prefetch_result = run(proxy);

  EXPECT_GE(prefetch_result.nodes[0].cache.fresh_hit_rate(),
            plain_result.nodes[0].cache.fresh_hit_rate());
}

TEST(EndToEnd, AdaptiveTtlRuns) {
  auto proxy = base_proxy();
  proxy.enable_adaptive_ttl = true;
  const auto result = run(proxy);
  EXPECT_EQ(result.client_requests, shared_workload().trace.size());
}

TEST(EndToEnd, PcvValidatesInBulk) {
  auto proxy = base_proxy();
  proxy.enable_pcv = true;
  proxy.pcv.batch = 10;
  proxy.pcv.horizon = 600;
  const auto result = run(proxy);
  EXPECT_GT(result.nodes[0].pcv.batches_sent, 0u);
  EXPECT_GT(result.nodes[0].pcv.freshened, 0u);
}

TEST(EndToEnd, PcvCutsValidationTraffic) {
  const auto base_result = run(base_proxy());

  auto proxy = base_proxy();
  proxy.enable_pcv = true;
  const auto pcv_result = run(proxy);

  // Bulk validation pre-freshens entries, so fewer client requests land
  // on stale cache entries and trigger If-Modified-Since exchanges.
  EXPECT_LT(pcv_result.validations, base_result.validations);
  EXPECT_GE(pcv_result.nodes[0].cache.fresh_hit_rate(),
            base_result.nodes[0].cache.fresh_hit_rate());
}

TEST(EndToEnd, PcvOffByDefault) {
  const auto result = run(base_proxy());
  EXPECT_EQ(result.nodes[0].pcv.batches_sent, 0u);
}

TEST(EndToEnd, PersistentConnectionsReused) {
  const auto result = run(base_proxy());
  EXPECT_GT(result.connections.reused, 0u);
  EXPECT_GT(result.connections.reuse_fraction(), 0.05);
}

TEST(EndToEnd, LatencyAccumulates) {
  const auto result = run(base_proxy());
  EXPECT_GT(result.user_latency_sum, 0.0);
  EXPECT_GT(result.mean_user_latency(), 0.0);
  EXPECT_GT(result.total_packets, result.server_contacts);
}

TEST(EndToEnd, RpvBoundsPiggybackTraffic) {
  auto no_rpv = base_proxy();
  no_rpv.use_rpv = false;
  const auto result_without = run(no_rpv);

  auto with_rpv = base_proxy();
  with_rpv.use_rpv = true;
  with_rpv.rpv.timeout = 60;
  const auto result_with = run(with_rpv);

  EXPECT_LT(result_with.piggyback_bytes, result_without.piggyback_bytes);
}

TEST(EndToEnd, MinIntervalBoundsPiggybackTraffic) {
  auto throttled = base_proxy();
  throttled.min_piggyback_interval = 60;
  const auto result_throttled = run(throttled);

  const auto result_plain = run(base_proxy());
  EXPECT_LT(result_throttled.center.piggybacks_injected,
            result_plain.center.piggybacks_injected);
}

}  // namespace
}  // namespace piggyweb::sim
