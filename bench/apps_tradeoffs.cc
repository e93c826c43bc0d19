// §4 application trade-offs with the clients behind one proxy (volume
// center on the path, simulated origins), run by the simulation engine:
//   * cache coherency — a-priori refreshes/invalidations, validations
//     avoided, staleness;
//   * prefetching — useful vs futile fetches and the bandwidth increase
//     (paper: e.g. Apache 40% prefetched at 20% futile / +10% bandwidth);
//   * cache replacement — LRU vs SIZE vs GD-Size vs piggyback-aware LRU
//     vs hint-aware GreedyDual (server-assisted, [24]);
//   * adaptive freshness interval — validations vs staleness balance;
//   * informed fetching — the proxy's real upstream fetch log replayed
//     shortest-first vs FIFO (examples/informed_fetch_demo covers the
//     synthetic-queue version).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/engine.h"
#include "sim/report.h"

using namespace piggyweb;

namespace {

// The proxy's cost-accounted link faces the origin, which sees each
// client's own id.
sim::ProxyNodeSpec base_proxy() {
  sim::ProxyNodeSpec proxy;
  proxy.name = "proxy";
  proxy.cache.capacity_bytes = 24ULL * 1024 * 1024;
  proxy.cache.freshness_interval = 2 * util::kHour;
  proxy.base_filter.max_elements = 20;
  proxy.rpv.timeout = 60;
  proxy.link = net::NetworkConfig{};
  return proxy;
}

sim::EngineConfig base_engine() {
  sim::EngineConfig engine;
  engine.volumes.level = 1;
  return engine;
}

sim::EngineResult run(const trace::SyntheticWorkload& workload,
                      const sim::ProxyNodeSpec& proxy,
                      const sim::EngineConfig& engine = base_engine()) {
  return sim::SimulationEngine(workload, sim::Topology{{proxy}}, engine)
      .run();
}

void coherency_section(const trace::SyntheticWorkload& workload) {
  std::printf("--- cache coherency ---\n");
  auto off = base_engine();
  off.piggybacking = false;
  const auto baseline = run(workload, base_proxy(), off);
  const auto piggy = run(workload, base_proxy());
  const auto& baseline_proxy = baseline.nodes[0];
  const auto& piggy_proxy = piggy.nodes[0];

  sim::Table table({"metric", "no piggybacking", "piggyback coherency"});
  table.row({"fresh hit rate",
             sim::Table::pct(baseline_proxy.cache.fresh_hit_rate()),
             sim::Table::pct(piggy_proxy.cache.fresh_hit_rate())});
  table.row({"If-Modified-Since validations",
             sim::Table::count(baseline.validations),
             sim::Table::count(piggy.validations)});
  table.row({"stale serves / fresh hits",
             sim::Table::pct(baseline.stale_rate(), 2),
             sim::Table::pct(piggy.stale_rate(), 2)});
  table.row({"a-priori refreshes", "0",
             sim::Table::count(piggy_proxy.coherency.refreshed)});
  table.row({"a-priori invalidations", "0",
             sim::Table::count(piggy_proxy.coherency.invalidated)});
  table.row({"mean user latency (s)",
             sim::Table::num(baseline.mean_user_latency(), 3),
             sim::Table::num(piggy.mean_user_latency(), 3)});
  table.print(std::cout);
  std::printf("\n");
}

void prefetch_section(const trace::SyntheticWorkload& workload,
                      const volume::ProbabilityVolumeSet& volumes) {
  std::printf("--- prefetching from thinned probability volumes ---\n");
  // Prefetching needs accurate predictions (§4): all rows (including the
  // off-baseline) use the paper's best volumes, probability-based with
  // effectiveness thinning, so the only varying factor is prefetching.
  auto engine = base_engine();
  engine.probability_volumes = &volumes;
  const auto baseline = run(workload, base_proxy(), engine);
  sim::Table table({"size ceiling", "prefetches", "futile %",
                    "bandwidth increase", "fresh hit rate"});
  table.row({"off", "0", "-", "-",
             sim::Table::pct(baseline.nodes[0].cache.fresh_hit_rate())});
  for (const std::uint64_t ceiling :
       {16ULL * 1024, 128ULL * 1024, 1024ULL * 1024}) {
    auto proxy = base_proxy();
    proxy.enable_prefetch = true;
    proxy.prefetch.max_resource_bytes = ceiling;
    const auto result = run(workload, proxy, engine);
    const double bw_increase =
        baseline.body_bytes == 0
            ? 0.0
            : static_cast<double>(result.body_bytes) /
                      static_cast<double>(baseline.body_bytes) -
                  1.0;
    const auto& node = result.nodes[0];
    table.row({sim::Table::count(ceiling / 1024) + " KB",
               sim::Table::count(node.prefetch.issued),
               sim::Table::pct(node.prefetch.futile_fraction()),
               sim::Table::pct(bw_increase),
               sim::Table::pct(node.cache.fresh_hit_rate())});
  }
  table.print(std::cout);
  std::printf(
      "(paper: Apache 40%% prefetched at 20%% futile = +10%% bandwidth; "
      "Sun 30%% at 15%% futile = +5%%)\n\n");
}

void replacement_section(const trace::SyntheticWorkload& workload,
                         const volume::ProbabilityVolumeSet& volumes) {
  std::printf("--- cache replacement under pressure ---\n");
  auto engine = base_engine();
  engine.probability_volumes = &volumes;  // accurate piggyback hints
  sim::Table table({"policy", "hit rate", "fresh hit rate", "evictions"});
  for (const auto policy :
       {proxy::ReplacementPolicy::kLru, proxy::ReplacementPolicy::kSize,
        proxy::ReplacementPolicy::kGdSize,
        proxy::ReplacementPolicy::kLruPiggyback,
        proxy::ReplacementPolicy::kGdSizeHint}) {
    auto spec = base_proxy();
    spec.cache.capacity_bytes = 512 * 1024;  // force pressure
    spec.cache.policy = policy;
    const auto result = run(workload, spec, engine);
    const auto& cache = result.nodes[0].cache;
    table.row({proxy::policy_name(policy), sim::Table::pct(cache.hit_rate()),
               sim::Table::pct(cache.fresh_hit_rate()),
               sim::Table::count(cache.evictions)});
  }
  table.print(std::cout);
  std::printf("\n");
}

void adaptive_ttl_section(const trace::SyntheticWorkload& workload) {
  std::printf("--- adaptive freshness interval ---\n");
  sim::Table table({"mode", "validations", "304 share of validations",
                    "stale serves"});
  for (const bool adaptive : {false, true}) {
    auto proxy = base_proxy();
    proxy.enable_adaptive_ttl = adaptive;
    const auto result = run(workload, proxy);
    table.row({adaptive ? "adaptive delta" : "fixed delta",
               sim::Table::count(result.validations),
               sim::Table::pct(result.validations
                                   ? static_cast<double>(
                                         result.validations_not_modified) /
                                         static_cast<double>(
                                             result.validations)
                                   : 0.0),
               sim::Table::count(result.stale_served)});
  }
  table.print(std::cout);
  std::printf("\n");
}

void informed_fetch_section(const trace::SyntheticWorkload& workload) {
  std::printf("--- informed fetching (upstream fetch log replay) ---\n");
  // The piggybacked size attributes let the proxy reorder its fetch
  // queue; the engine logs every upstream fetch and replays the log under
  // both disciplines over the same bottleneck link (§4).
  auto proxy = base_proxy();
  proxy.enable_informed_fetch = true;
  const auto result = run(workload, proxy);
  const auto& node = result.nodes[0];
  if (!node.fetch_schedule || !node.fetch_schedule_fifo) {
    std::printf("(no upstream fetches logged)\n\n");
    return;
  }
  sim::Table table({"discipline", "mean wait (s)", "mean completion (s)",
                    "max completion (s)"});
  const auto& fifo = *node.fetch_schedule_fifo;
  const auto& informed = *node.fetch_schedule;
  table.row({"fifo (uninformed)", sim::Table::num(fifo.mean_wait, 4),
             sim::Table::num(fifo.mean_completion, 4),
             sim::Table::num(fifo.max_completion, 4)});
  table.row({"shortest-first (informed)",
             sim::Table::num(informed.mean_wait, 4),
             sim::Table::num(informed.mean_completion, 4),
             sim::Table::num(informed.max_completion, 4)});
  table.print(std::cout);
  std::printf("(%llu fetches replayed)\n\n",
              static_cast<unsigned long long>(
                  informed.completion_by_id.size()));
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "Section 4: proxy application trade-offs, clients behind one proxy");
  const auto run_scope =
      bench::parse_flags(flags, "apps_tradeoffs", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Section 4: proxy application trade-offs (end-to-end simulation)",
      "piggyback coherency lifts fresh hits and cuts validations without "
      "raising the stale rate; prefetching trades bandwidth for hit rate "
      "with rising futility at larger budgets; piggyback-aware "
      "replacement is competitive with LRU under pressure; adaptive "
      "deltas rebalance validations vs staleness");

  const auto workload =
      trace::generate(trace::apache_profile(bench::kApacheScale * scale));
  std::printf("workload: apache-like, %zu requests\n\n",
              workload.trace.size());

  // Offline-trained, effectiveness-thinned probability volumes — the
  // paper's most accurate configuration, used where prediction precision
  // matters (prefetching, replacement hints).
  const auto counts = bench::pair_counts(workload);
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.2;
  pvc.effectiveness_threshold = 0.2;
  const auto volumes =
      volume::build_probability_volumes(workload.trace, counts, pvc);

  coherency_section(workload);
  prefetch_section(workload, volumes);
  replacement_section(workload, volumes);
  adaptive_ttl_section(workload);
  informed_fetch_section(workload);
  return 0;
}
