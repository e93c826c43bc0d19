#include "obs/registry.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace piggyweb::obs {
namespace {

TEST(Registry, GetOrCreateReturnsSameMetric) {
  Registry registry;
  auto& a = registry.counter("x");
  auto& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(Registry, GaugeSetMaxIsAWatermark) {
  Registry registry;
  auto& gauge = registry.gauge("depth");
  gauge.set_max(3);
  gauge.set_max(1);
  gauge.set_max(7);
  EXPECT_EQ(gauge.value(), 7.0);
}

TEST(Registry, SnapshotSortsByNameAndCarriesDeterministicBit) {
  Registry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha", /*deterministic=*/false).add(2);
  const auto snapshot = registry.snapshot();
  const auto* counters = snapshot.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->items().size(), 2u);
  EXPECT_EQ(counters->items()[0].find("name")->string(), "alpha");
  EXPECT_EQ(counters->items()[0].find("deterministic")->boolean(), false);
  EXPECT_EQ(counters->items()[1].find("name")->string(), "zeta");
  EXPECT_EQ(counters->items()[1].find("deterministic")->boolean(), true);
}

TEST(Registry, IdenticalContentSerializesIdenticalBytes) {
  // Registration order differs; snapshot bytes must not.
  Registry a;
  a.counter("one").add(1);
  a.gauge("two").set(2);
  Registry b;
  b.gauge("two").set(2);
  b.counter("one").add(1);
  EXPECT_EQ(a.to_json(), b.to_json());
}

// Build the per-shard registry a worker with the given seed would produce.
void fill_shard(Registry& registry, std::uint64_t seed) {
  registry.counter("events").add(seed + 1);
  registry.gauge("watermark").set_max(static_cast<double>(seed * 3 % 7));
  registry.log_histogram("latency").record(static_cast<double>(seed % 10) /
                                           10.0);
}

TEST(Registry, MergeIsAssociative) {
  // ((a + b) + c) and (a + (b + c)) must snapshot identically.
  Registry a1, b1, c1;
  fill_shard(a1, 0);
  fill_shard(b1, 1);
  fill_shard(c1, 2);
  a1.merge_from(b1);
  a1.merge_from(c1);

  Registry a2, b2, c2;
  fill_shard(a2, 0);
  fill_shard(b2, 1);
  fill_shard(c2, 2);
  b2.merge_from(c2);
  a2.merge_from(b2);

  EXPECT_EQ(a1.to_json(), a2.to_json());
}

TEST(Registry, MergeTotalsIndependentOfShardCount) {
  // The same work split across 1, 2, or 4 shard registries and merged in
  // shard order must produce identical snapshots — the property behind
  // "registry snapshots bit-identical across --threads=N".
  const std::uint64_t kWork = 12;
  std::string baseline;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    std::vector<std::unique_ptr<Registry>> parts;
    for (std::size_t s = 0; s < shards; ++s) {
      parts.push_back(std::make_unique<Registry>());
    }
    for (std::uint64_t item = 0; item < kWork; ++item) {
      fill_shard(*parts[item % shards], item);
    }
    Registry total;
    for (const auto& part : parts) total.merge_from(*part);
    const auto snapshot = total.to_json();
    if (baseline.empty()) {
      baseline = snapshot;
    } else {
      EXPECT_EQ(snapshot, baseline) << "shards=" << shards;
    }
  }
}

TEST(Registry, PrometheusExposition) {
  Registry registry;
  registry.counter("eval.requests").add(10);
  registry.gauge("pool.depth").set(3);
  registry.log_histogram("task.seconds").record(0.4);
  const auto text = registry.to_prometheus();
  EXPECT_NE(text.find("eval_requests 10"), std::string::npos);
  EXPECT_NE(text.find("pool_depth 3"), std::string::npos);
  EXPECT_NE(text.find("task_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("task_seconds_bucket"), std::string::npos);
}

TEST(Registry, GlobalPointerDefaultsToNull) {
  EXPECT_EQ(global_metrics(), nullptr);
  Registry registry;
  set_global_metrics(&registry);
  EXPECT_EQ(global_metrics(), &registry);
  set_global_metrics(nullptr);
  EXPECT_EQ(global_metrics(), nullptr);
}

}  // namespace
}  // namespace piggyweb::obs
