// Table 3: server log characteristics (AIUSA, Marimba, Apache, Sun) —
// requests, clients, requests/source, unique resources — plus Appendix A
// skew and method-mix facts.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"
#include "trace/log_stats.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags("Table 3: server log characteristics");
  const auto run_scope =
      bench::parse_flags(flags, "table3_server_logs", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Table 3: server log characteristics",
      "Sun is by far the largest (most requests, most resources, highest "
      "requests/source ~60); Marimba is tiny (<100 resources) and "
      "POST-dominated; ~85% of requests hit <10% of resources; ~10% of "
      "clients produce >50% of requests");

  sim::Table table({"Server Log", "Requests", "Clients", "req/source",
                    "Unique Resources", "POST share",
                    "top-10% resource share", "top-10% client share"});
  const std::pair<trace::LogProfile, double> profiles[] = {
      {trace::aiusa_profile(bench::kAiusaScale * scale), 23.64},
      {trace::marimba_profile(bench::kMarimbaScale * scale), 9.23},
      {trace::apache_profile(bench::kApacheScale * scale), 10.73},
      {trace::sun_profile(bench::kSunScale * scale), 59.66},
  };
  for (const auto& [profile, paper_rps] : profiles) {
    const auto workload = trace::generate(profile);
    const auto stats = trace::compute_log_stats(workload.trace);
    table.row({profile.name, sim::Table::count(stats.requests),
               sim::Table::count(stats.distinct_sources),
               sim::Table::num(stats.requests_per_source, 2) + " (paper " +
                   sim::Table::num(paper_rps, 2) + ")",
               sim::Table::count(stats.unique_resources),
               sim::Table::pct(stats.post_fraction),
               sim::Table::pct(stats.top10pct_resource_share),
               sim::Table::pct(stats.top10pct_source_share)});
  }
  table.print(std::cout);
  std::printf(
      "\npaper (unscaled): AIUSA 180k/7.6k/23.6/1102; Marimba "
      "222k/24k/9.2/94; Apache 2.9M/272k/10.7/788; Sun "
      "13.0M/219k/59.7/29436.\n");
  return 0;
}
