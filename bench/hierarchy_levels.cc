// Extension study: piggybacking in a two-level cache hierarchy (§1 notes
// the techniques apply to hierarchical caching; §5 lists multi-level
// caches as future work). Children sit near clients, one parent faces the
// origin; the parent relays piggybacks downstream so both levels receive
// refreshes/invalidations from one server message.
//
// Both halves run the simulation engine on balanced trees: first the
// two-level tree (depth 2) over a server log, then a sweep of depth 1–4
// at several fan-outs over a multi-origin client-trace workload, one JSON
// row per shape (optionally mirrored to --json=FILE). Deeper trees absorb
// more requests below the root but fragment each leaf's client
// population.
//
//   hierarchy_levels [--scale=1.0] [--json=BENCH_topology_sweep.json]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "sim/engine.h"
#include "sim/report.h"

using namespace piggyweb;

namespace {

// Both halves' trees: 2 MiB leaf caches, a 32 MiB root, free links.
sim::UniformTreeSpec tree_spec(int depth, int fanout) {
  sim::UniformTreeSpec spec;
  spec.depth = depth;
  spec.fanout = fanout;
  spec.leaf_cache.capacity_bytes = 2ULL * 1024 * 1024;
  spec.root_cache.capacity_bytes = 32ULL * 1024 * 1024;
  spec.base_filter.max_elements = 20;
  spec.rpv.timeout = 60;
  return spec;
}

void add_row(sim::Table& table, const char* name,
             const trace::SyntheticWorkload& workload,
             const sim::Topology& topology, const sim::EngineConfig& engine) {
  const auto result = sim::SimulationEngine(workload, topology, engine).run();
  table.row({name, sim::Table::pct(result.leaf_hit_rate()),
             sim::Table::pct(result.overall_hit_rate()),
             sim::Table::pct(result.server_contact_rate()),
             sim::Table::count(result.merged_root_coherency().refreshed),
             sim::Table::count(result.merged_leaf_coherency().refreshed),
             sim::Table::count(result.stale_served)});
}

obs::Json shape_json(int depth, int fanout, const sim::Topology& topology,
                     const sim::EngineResult& result) {
  auto row = obs::Json::object();
  row.set("depth", depth);
  row.set("fanout", fanout);
  row.set("nodes", topology.nodes.size());
  row.set("leaves", sim::leaf_indices(topology).size());
  row.set("client_requests", result.client_requests);
  row.set("server_contacts", result.server_contacts);
  row.set("leaf_hit_rate", result.leaf_hit_rate());
  row.set("overall_hit_rate", result.overall_hit_rate());
  row.set("server_contact_rate", result.server_contact_rate());
  row.set("mean_user_latency", result.mean_user_latency());
  row.set("root_refreshes", result.merged_root_coherency().refreshed);
  row.set("leaf_refreshes", result.merged_leaf_coherency().refreshed);
  row.set("stale_served", result.stale_served);
  return row;
}

// Balanced trees of depth 1–4 over a multi-origin client trace, run
// through the topology-general engine. The root keeps a cost-accounted
// origin link so latency is comparable across shapes.
void topology_sweep(double scale, const std::string& json_path) {
  std::printf(
      "--- topology sweep: balanced trees over a multi-origin client "
      "trace ---\n");
  const auto workload = trace::generate(
      trace::att_client_profile(bench::kAttScale * 0.5 * scale));
  std::printf("workload: att_client-like, %zu requests\n",
              workload.trace.size());

  sim::EngineConfig engine_config;
  engine_config.volumes.level = 1;

  auto rows = obs::Json::array();
  for (const int depth : {1, 2, 3, 4}) {
    for (const int fanout : {2, 4}) {
      if (depth == 1 && fanout != 2) continue;  // one node either way
      auto spec = tree_spec(depth, depth == 1 ? 1 : fanout);
      spec.leaf_cache.freshness_interval = 2 * util::kHour;
      spec.root_cache.freshness_interval = 2 * util::kHour;
      spec.origin_link = net::NetworkConfig{};
      const auto topology = sim::uniform_tree_topology(spec);
      const auto result =
          sim::SimulationEngine(workload, topology, engine_config).run();
      auto row = shape_json(depth, spec.fanout, topology, result);
      std::printf("%s\n", row.dump(0).c_str());
      rows.push_back(std::move(row));
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << rows.dump(2) << "\n";
    std::printf("(wrote %s)\n", json_path.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags("Extension: piggybacking across cache hierarchies");
  flags.add_string("json", "",
                   "also write the topology sweep's JSON rows to this file");
  const auto run_scope =
      bench::parse_flags(flags, "hierarchy_levels", argc, argv);
  const double scale = flags.get_double("scale");
  const auto json_path = flags.get_string("json");
  bench::print_banner(
      "Extension: piggybacking across cache hierarchies",
      "piggybacking cuts origin contacts at both depths; relaying "
      "piggybacks to the children adds child-level refreshes on top of "
      "the parent's; fragmenting clients over more children lowers the "
      "child hit rate but the parent recovers most of it; in the "
      "topology sweep, extra levels absorb requests below the root while "
      "leaf hit rates fall with fan-out");

  const auto workload =
      trace::generate(trace::apache_profile(bench::kApacheScale * scale));
  std::printf("workload: apache-like, %zu requests\n\n",
              workload.trace.size());

  sim::Table table({"configuration", "child hit rate", "overall hit rate",
                    "server contact rate", "parent refreshes",
                    "child refreshes", "stale serves"});

  sim::EngineConfig engine;
  engine.volumes.level = 1;
  auto off = engine;
  off.piggybacking = false;
  const auto relayed = sim::uniform_tree_topology(tree_spec(2, 4));
  auto parent_only = relayed;
  parent_only.relay_to_descendants = false;

  add_row(table, "no piggybacking", workload, relayed, off);
  add_row(table, "piggyback, parent only", workload, parent_only, engine);
  add_row(table, "piggyback, relayed to children", workload, relayed,
          engine);
  add_row(table, "relayed, 16 children", workload,
          sim::uniform_tree_topology(tree_spec(2, 16)), engine);

  table.print(std::cout);
  std::printf("\n");

  topology_sweep(scale, json_path);
  return 0;
}
