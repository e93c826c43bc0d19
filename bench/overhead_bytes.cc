// §2.3 wire-overhead accounting: replay the Sun log through probability
// volumes (p_t = 0.25, eff 0.2), encode every piggyback the protocol
// would actually send, and reproduce the paper's arithmetic: bytes per
// element (~66 B with ~50 B URLs), bytes per message (~398 B for ~6
// elements), how often the piggyback fits in the response's final packet,
// and the packets saved per avoided TCP connection.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/wire_size.h"
#include "sim/report.h"
#include "util/stats.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags("Section 2.3: wire overhead of the piggybacks sent");
  const auto run_scope =
      bench::parse_flags(flags, "overhead_bytes", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Section 2.3: piggyback wire overhead (Sun, probability volumes)",
      "per-element cost = URL length + 16 B; messages of a handful of "
      "elements stay in the low hundreds of bytes, small against the "
      "paper's 13.9 KB mean / 1.53 KB median response, and usually add "
      "zero packets; each avoided connection saves >= 2 packets");

  const auto workload =
      trace::generate(trace::sun_profile(bench::kSunScale * scale));
  const auto counts = bench::pair_counts(workload);
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.25;
  pvc.effectiveness_threshold = 0.2;
  const auto set =
      volume::build_probability_volumes(workload.trace, counts, pvc);
  volume::ProbabilityVolumes provider(&set, 200);
  server::TraceMetaOracle meta(workload.trace);

  util::RunningStats url_bytes, message_bytes, element_count;
  util::RunningStats response_sizes;
  std::uint64_t responses = 0, with_piggyback = 0, extra_packets = 0;

  core::ProxyFilter filter;  // protocol defaults
  for (const auto& req : workload.trace.requests()) {
    ++responses;
    if (req.status == 200 && req.size > 0) {
      response_sizes.add(static_cast<double>(req.size));
    }
    core::VolumeRequest vr;
    vr.server = req.server;
    vr.source = req.source;
    vr.path = req.path;
    vr.time = req.time;
    vr.size = req.size;
    const auto prediction = provider.on_request(vr);
    const auto message = core::apply_filter(prediction, vr, filter, meta);
    if (message.empty()) continue;
    ++with_piggyback;
    for (const auto& element : message.elements) {
      url_bytes.add(static_cast<double>(
          workload.trace.paths().str(element.resource).size()));
    }
    const auto cost = core::piggyback_wire_cost(req.size, message,
                                                workload.trace.paths());
    message_bytes.add(static_cast<double>(cost.bytes));
    element_count.add(static_cast<double>(message.elements.size()));
    extra_packets += cost.extra_packets;
  }

  sim::Table table({"quantity", "measured", "paper"});
  table.row({"avg URL bytes", sim::Table::num(url_bytes.mean(), 1),
             "~50"});
  table.row({"avg bytes per element",
             sim::Table::num(url_bytes.mean() + 16.0, 1), "~66"});
  table.row({"avg elements per message",
             sim::Table::num(element_count.mean(), 1), "~6 (Sun)"});
  table.row({"avg bytes per piggyback message",
             sim::Table::num(message_bytes.mean(), 1), "~398"});
  table.row({"responses carrying a piggyback",
             sim::Table::pct(static_cast<double>(with_piggyback) /
                             static_cast<double>(responses)),
             "filtered subset"});
  table.row({"piggybacks adding >= 1 packet",
             sim::Table::pct(with_piggyback
                                 ? static_cast<double>(extra_packets) /
                                       static_cast<double>(with_piggyback)
                                 : 0.0),
             "rare"});
  table.row({"mean response body bytes",
             sim::Table::num(response_sizes.mean(), 0), "13900"});
  table.row({"packets saved per avoided TCP connection",
             sim::Table::count(core::kPacketsPerAvoidedConnection),
             ">= 2"});
  table.print(std::cout);
  std::printf(
      "\n(the synthetic site uses shorter URLs and smaller bodies than "
      "1998 Sun; the per-element arithmetic and fits-in-last-packet "
      "conclusion are the reproduction targets)\n");
  return 0;
}
