// Transparent volume center (§1, §5): a router on the proxy-server path
// maintains volumes and injects piggybacks for MANY servers at once, with
// none of the origins modified. This demo replays an AT&T-like client
// trace through a center and reports per-center effectiveness —
// the deployment story for incremental adoption.
//
// Build & run:  ./build/examples/volume_center_demo [--scale=<x>]
#include <cstdio>
#include <iostream>

#include "cli_common.h"
#include "core/rpv.h"
#include "proxy/filter_policy.h"
#include "server/meta.h"
#include "server/volume_center.h"
#include "sim/report.h"
#include "trace/profiles.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags("one transparent volume center for many servers");
  flags.add_positive_double("scale", 0.03, "AT&T-like client-trace scale");
  if (!flags.parse(argc, argv)) return 2;
  const double scale = flags.get_double("scale");
  const auto workload = trace::generate(trace::att_client_profile(scale));
  const auto& trace = workload.trace;
  std::printf("client trace: %zu requests to %zu servers\n\n", trace.size(),
              trace.servers().size());

  volume::DirectoryVolumeConfig dvc;
  dvc.level = 1;
  server::VolumeCenter center(dvc, trace.paths());
  // A router cannot stat the servers' file systems: the center fills
  // piggyback elements from metadata learned off the traffic it sees.
  server::TraceMetaOracle learned;

  // Per-(source, server) RPV lists, exactly what a proxy would keep, and
  // per-server frequency control.
  core::RpvConfig rpv_config;
  rpv_config.timeout = 60;
  std::unordered_map<std::uint64_t, core::RpvList> rpv;
  proxy::FilterPolicyConfig policy_config;
  policy_config.base.max_elements = 10;
  policy_config.use_rpv = false;
  policy_config.min_piggyback_interval = 10;
  proxy::FilterPolicy filter_policy(policy_config);

  std::uint64_t mentions = 0;
  // Count how often a mentioned resource is requested by the same source
  // within 5 minutes (true predictions, loosely).
  std::unordered_map<std::uint64_t, util::Seconds> mentioned_at;
  std::uint64_t fulfilled = 0;

  for (const auto& req : trace.requests()) {
    const auto pair_key =
        (static_cast<std::uint64_t>(req.source) << 32) | req.server;

    core::ProxyFilter filter = filter_policy.filter_for(req.server, req.time);
    if (filter.enabled) {
      filter.rpv = rpv.try_emplace(pair_key, rpv_config)
                       .first->second.live(req.time);
    }

    const auto sr_key =
        (static_cast<std::uint64_t>(req.source) << 32) | req.path;
    if (const auto it = mentioned_at.find(sr_key);
        it != mentioned_at.end() && req.time.value - it->second <= 300) {
      ++fulfilled;
      mentioned_at.erase(it);
    }

    learned.observe_window({&req, 1}, trace.paths());
    core::VolumeRequest exchange;
    exchange.server = req.server;
    exchange.source = req.source;
    exchange.path = req.path;
    exchange.time = req.time;
    exchange.size = req.size;
    exchange.type = trace::classify_path(trace.paths().str(req.path));
    const auto message = center.observe(exchange, filter, learned);
    if (message.empty()) continue;
    filter_policy.on_piggyback(req.server, message.volume, req.time);
    rpv.try_emplace(pair_key, rpv_config)
        .first->second.note(message.volume, req.time);
    mentions += message.elements.size();
    for (const auto& element : message.elements) {
      mentioned_at[(static_cast<std::uint64_t>(req.source) << 32) |
                   element.resource] = req.time.value;
    }
  }

  const auto stats = center.stats();
  sim::Table table({"metric", "value"});
  table.row({"exchanges observed", sim::Table::count(stats.exchanges_observed)});
  table.row({"servers tracked", sim::Table::count(stats.servers_tracked)});
  table.row({"piggybacks injected",
             sim::Table::count(stats.piggybacks_injected)});
  table.row({"piggyback elements",
             sim::Table::count(stats.elements_injected)});
  table.row({"avg elements / injected piggyback",
             sim::Table::num(stats.piggybacks_injected
                                 ? static_cast<double>(
                                       stats.elements_injected) /
                                       static_cast<double>(
                                           stats.piggybacks_injected)
                                 : 0.0,
                             1)});
  table.row({"predictions fulfilled within 5 min",
             sim::Table::count(fulfilled)});
  table.print(std::cout);
  std::printf(
      "\none center covers all %zu origin servers with no server-side "
      "changes — volumes are learned from the traffic passing through, "
      "and frequency control + RPV lists bound the injected bytes "
      "(%llu mentions total).\n",
      trace.servers().size(), static_cast<unsigned long long>(mentions));
  return 0;
}
