// Table 2: client log characteristics (Digital, AT&T) — requests, distinct
// servers, unique resources — plus the Appendix A skew facts.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"
#include "trace/log_stats.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags("Table 2: client log characteristics");
  const auto run_scope =
      bench::parse_flags(flags, "table2_client_logs", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Table 2: client log characteristics",
      "Digital is several times larger than AT&T in requests, servers and "
      "resources; both have heavy server skew (a few percent of servers "
      "hold half the accesses) and 15-25% Not Modified responses");

  sim::Table table({"Client Log", "Requests", "Distinct Servers",
                    "Unique Resources", "req/source", "304 share",
                    "mean size", "median size", "servers for 1/2 accesses"});
  for (auto profile :
       {trace::digital_client_profile(bench::kDigitalScale * scale),
        trace::att_client_profile(bench::kAttScale * scale)}) {
    const auto workload = trace::generate(profile);
    const auto stats = trace::compute_log_stats(workload.trace);
    table.row({profile.name, sim::Table::count(stats.requests),
               sim::Table::count(stats.distinct_servers),
               sim::Table::count(stats.unique_resources),
               sim::Table::num(stats.requests_per_source, 1),
               sim::Table::pct(stats.not_modified_fraction),
               sim::Table::num(stats.mean_response_size, 0),
               sim::Table::num(stats.median_response_size, 0),
               sim::Table::pct(stats.servers_for_half_accesses)});
  }
  table.print(std::cout);
  std::printf(
      "\npaper (unscaled): Digital 6.41M req / 57,832 servers / 2.08M "
      "resources; AT&T 1.11M req / 18,005 servers / 521k resources;\n"
      "Not Modified 18.7%% (Digital) and 15.8%% (AT&T). Synthetic logs are "
      "scaled by --scale (relative shape is the target).\n");
  return 0;
}
