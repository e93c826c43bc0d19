// Baseline comparison: how should a proxy keep its cache coherent?
//
//   * TTL only — plain freshness intervals + If-Modified-Since (the
//     pre-piggybacking status quo the paper's §1 describes);
//   * PCV — piggyback cache validation, the proxy-driven mechanism of the
//     paper's reference [10] (batched validations on proxy requests);
//   * volumes — the paper's server-driven mechanism (P-volume piggybacks
//     + coherency processing), with directory and thinned-probability
//     variants;
//   * PCV + volumes — both directions at once (§5's combined framework).
//
// Compares staleness, validation traffic, fresh-hit rate, piggyback bytes
// and user latency on the apache-like workload.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/engine.h"
#include "sim/report.h"

using namespace piggyweb;

namespace {

// The clients sit behind one proxy whose cost-accounted link faces the
// origin; the origin sees each client's own id.
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

void add_row(sim::Table& table, const char* name,
             const trace::SyntheticWorkload& workload,
             const sim::ProxyNodeSpec& proxy,
             const sim::EngineConfig& engine) {
  const auto result =
      sim::SimulationEngine(workload, sim::Topology{{proxy}}, engine).run();
  const auto& node = result.nodes[0];
  table.row({name, sim::Table::pct(node.cache.fresh_hit_rate()),
             sim::Table::count(result.validations),
             sim::Table::pct(result.stale_rate(), 2),
             sim::Table::count(node.coherency.refreshed +
                               node.pcv.freshened),
             sim::Table::count(node.coherency.invalidated +
                               node.pcv.invalidated),
             sim::Table::count(result.piggyback_bytes / 1024),
             sim::Table::num(result.mean_user_latency(), 3)});
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "Baselines: TTL vs PCV [10] vs server volumes for cache coherency");
  const auto run_scope =
      bench::parse_flags(flags, "coherency_baselines", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Baselines: TTL vs PCV [10] vs server volumes (coherency)",
      "both piggyback mechanisms beat plain TTL on validations and "
      "staleness; volumes refresh far more entries per byte (the server "
      "knows what changed), PCV is precise but limited to what the proxy "
      "already caches; combining them is strongest");

  const auto workload =
      trace::generate(trace::apache_profile(bench::kApacheScale * scale));
  std::printf("workload: apache-like, %zu requests\n\n",
              workload.trace.size());

  const auto counts = bench::pair_counts(workload);
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.2;
  pvc.effectiveness_threshold = 0.2;
  const auto volumes =
      volume::build_probability_volumes(workload.trace, counts, pvc);

  sim::Table table({"coherency scheme", "fresh hit rate",
                    "IMS validations", "stale rate", "freshened",
                    "invalidated", "piggyback KB", "mean latency (s)"});

  auto with_pcv = base_proxy();
  with_pcv.enable_pcv = true;
  with_pcv.pcv.batch = 10;
  with_pcv.pcv.horizon = 600;
  sim::EngineConfig off;
  off.volumes.level = 1;
  off.piggybacking = false;
  auto directory = off;
  directory.piggybacking = true;
  auto probability = directory;
  probability.probability_volumes = &volumes;

  add_row(table, "TTL only", workload, base_proxy(), off);
  add_row(table, "PCV [10]", workload, with_pcv, off);
  add_row(table, "volumes (directory)", workload, base_proxy(), directory);
  add_row(table, "volumes (prob, thinned)", workload, base_proxy(),
          probability);
  add_row(table, "PCV + volumes", workload, with_pcv, probability);
  table.print(std::cout);
  return 0;
}
