// Prefetching study (§4): trade bandwidth for latency on a Sun-like
// workload, sweeping the precision of the prediction source (probability
// threshold) and showing the recall/futility balance the paper reports
// ("30% of requests prefetched at 15% futile fetches ... 70% prefetching
// incurs 50% futile").
//
// Build & run:  ./build/examples/prefetch_study [--scale=<x>]
#include <cstdio>
#include <iostream>

#include "cli_common.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "trace/profiles.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags("prefetching behind one proxy (§4)");
  flags.add_positive_double("scale", 0.008, "Sun-like workload scale");
  if (!flags.parse(argc, argv)) return 2;
  const double scale = flags.get_double("scale");
  const auto workload = trace::generate(trace::sun_profile(scale));
  std::printf("workload: sun-like, %zu requests\n\n", workload.trace.size());

  volume::PairCounterConfig pcc;
  const auto counts =
      volume::PairCounterBuilder(pcc).build(workload.trace, 10);

  // Every client sits behind one proxy whose cost-accounted link faces
  // the origin.
  sim::ProxyNodeSpec base;
  base.cache.capacity_bytes = 48ULL * 1024 * 1024;
  base.base_filter.max_elements = 20;
  base.rpv.timeout = 60;
  base.link = net::NetworkConfig{};
  const auto run = [&](const sim::ProxyNodeSpec& proxy,
                       const volume::ProbabilityVolumeSet& volumes) {
    sim::EngineConfig engine;
    engine.probability_volumes = &volumes;
    return sim::SimulationEngine(workload, sim::Topology{{proxy}}, engine)
        .run();
  };

  // Baseline: coherency only, probability volumes at p_t = 0.2.
  volume::ProbabilityVolumeConfig base_pvc;
  base_pvc.probability_threshold = 0.2;
  base_pvc.effectiveness_threshold = 0.2;
  const auto base_volumes =
      volume::build_probability_volumes(workload.trace, counts, base_pvc);
  const auto baseline = run(base, base_volumes);

  sim::Table table({"p_t", "prefetches", "useful", "futile %",
                    "bandwidth increase", "fresh hit rate",
                    "mean latency (s)"});
  table.row({"off", "0", "0", "-", "-",
             sim::Table::pct(baseline.nodes[0].cache.fresh_hit_rate()),
             sim::Table::num(baseline.mean_user_latency(), 3)});

  for (const double pt : {0.1, 0.2, 0.4}) {
    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = pt;
    pvc.effectiveness_threshold = 0.2;
    const auto volumes =
        volume::build_probability_volumes(workload.trace, counts, pvc);

    auto proxy_spec = base;
    proxy_spec.enable_prefetch = true;
    proxy_spec.prefetch.max_resource_bytes = 256 * 1024;
    proxy_spec.prefetch.useful_window = 300;
    const auto result = run(proxy_spec, volumes);
    const auto& proxy = result.nodes[0];

    const double bw = baseline.body_bytes == 0
                          ? 0.0
                          : static_cast<double>(result.body_bytes) /
                                    static_cast<double>(
                                        baseline.body_bytes) -
                                1.0;
    table.row({sim::Table::num(pt, 2),
               sim::Table::count(proxy.prefetch.issued),
               sim::Table::count(proxy.prefetch.useful),
               sim::Table::pct(proxy.prefetch.futile_fraction()),
               sim::Table::pct(bw),
               sim::Table::pct(proxy.cache.fresh_hit_rate()),
               sim::Table::num(result.mean_user_latency(), 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nreading: looser thresholds prefetch more (higher hit rate, lower "
      "latency) at the cost of more futile transfers — the paper's "
      "recall/precision dial. Futile fetches waste the bandwidth shown "
      "in the increase column.\n");
  return 0;
}
