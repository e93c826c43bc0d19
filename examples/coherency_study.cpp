// Cache-coherency study (§4): how much staleness and validation traffic
// does piggybacking remove for a proxy in front of an Apache-like site?
//
// Runs one proxy in front of the site three ways — no piggybacking,
// directory volumes, and thinned probability volumes — and compares
// freshness, If-Modified-Since traffic, connection counts and user latency.
//
// Build & run:  ./build/examples/coherency_study [--scale=<x>]
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
  tools::FlagSet flags("cache coherency behind one proxy (§4)");
  flags.add_positive_double("scale", 0.02, "Apache-like workload scale");
  if (!flags.parse(argc, argv)) return 2;
  const double scale = flags.get_double("scale");
  const auto workload = trace::generate(trace::apache_profile(scale));
  std::printf("workload: %zu requests from %zu clients\n\n",
              workload.trace.size(), workload.trace.sources().size());

  // Every client sits behind one proxy whose cost-accounted link faces
  // the origin.
  sim::ProxyNodeSpec proxy;
  proxy.cache.capacity_bytes = 24ULL * 1024 * 1024;
  proxy.cache.freshness_interval = 2 * util::kHour;
  proxy.base_filter.max_elements = 20;
  proxy.rpv.timeout = 60;
  proxy.link = net::NetworkConfig{};

  sim::Table table({"configuration", "fresh hit rate", "IMS validations",
                    "refreshed", "invalidated", "stale rate",
                    "connections opened", "mean latency (s)"});
  const auto add_row = [&](const char* name, const sim::EngineConfig& engine) {
    const auto result =
        sim::SimulationEngine(workload, sim::Topology{{proxy}}, engine).run();
    const auto& node = result.nodes[0];
    table.row({name, sim::Table::pct(node.cache.fresh_hit_rate()),
               sim::Table::count(result.validations),
               sim::Table::count(node.coherency.refreshed),
               sim::Table::count(node.coherency.invalidated),
               sim::Table::pct(result.stale_rate(), 2),
               sim::Table::count(result.connections.opened),
               sim::Table::num(result.mean_user_latency(), 3)});
  };

  sim::EngineConfig directory;  // level-1 directory volumes
  auto off = directory;
  off.piggybacking = false;
  add_row("no piggybacking", off);

  add_row("directory volumes", directory);

  volume::PairCounterConfig pcc;
  const auto counts =
      volume::PairCounterBuilder(pcc).build(workload.trace, 10);
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.2;
  pvc.effectiveness_threshold = 0.2;
  const auto volumes =
      volume::build_probability_volumes(workload.trace, counts, pvc);
  auto prob = directory;
  prob.probability_volumes = &volumes;
  add_row("probability volumes", prob);

  table.print(std::cout);
  std::printf(
      "\nreading: piggyback refreshes substitute for If-Modified-Since "
      "round trips (fewer validations, more fresh hits, lower latency); "
      "invalidations drop stale copies before a client can receive them; "
      "directory volumes refresh more aggressively, probability volumes "
      "more precisely.\n");
  return 0;
}
