// Figure 1: spacing of requests within directory-based volumes for the
// AT&T proxy trace.
//   (a) per directory level: % of requests whose prefix was seen before,
//       and the median interarrival time within a prefix;
//   (b) cumulative distribution of those interarrival times.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/locality.h"
#include "sim/report.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "Figure 1: spacing of requests within directory-based volumes");
  const auto run_scope =
      bench::parse_flags(flags, "fig1_directory_locality", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Figure 1: directory-prefix locality (AT&T-like client trace)",
      "(a) seen-before fraction falls with level (paper: 98.5% -> 61.6%) "
      "while median interarrival rises steeply (0.9 s -> ~1800 s); (b) a "
      "large share of within-volume interarrivals is under ~50 s at levels "
      "1-2; removing embedded images raises medians 10-20% but preserves "
      "the distribution shape");

  const auto workload =
      trace::generate(trace::att_client_profile(bench::kAttScale * scale));
  std::printf("trace: %zu requests, %zu servers, %zu resources\n\n",
              workload.trace.size(), workload.trace.servers().size(),
              workload.trace.paths().size());

  // --- (a) prefix statistics ------------------------------------------------
  sim::Table level_table({"Directory Level", "% Seen Before",
                          "Median Interarrival", "Median (no images)"});
  sim::LocalityOptions with_images;
  sim::LocalityOptions no_images;
  no_images.exclude_images = true;
  std::vector<sim::LocalityLevelResult> levels;
  for (int level = 0; level <= 4; ++level) {
    const auto result =
        sim::directory_locality(workload.trace, level, with_images);
    const auto filtered =
        sim::directory_locality(workload.trace, level, no_images);
    levels.push_back(result);
    level_table.row({sim::Table::count(static_cast<std::uint64_t>(level)),
                     sim::Table::pct(result.seen_before_fraction),
                     sim::Table::num(result.median_interarrival, 1) + " sec",
                     sim::Table::num(filtered.median_interarrival, 1) +
                         " sec"});
  }
  level_table.print(std::cout);

  // --- (b) interarrival CDF ---------------------------------------------------
  std::printf("\ninterarrival CDF within level-k volumes:\n");
  sim::Table cdf_table({"t (sec)", "level 0", "level 1", "level 2",
                        "level 3", "level 4"});
  for (std::size_t p = 0; p < levels[0].cdf_points.size(); ++p) {
    std::vector<std::string> row;
    row.push_back(sim::Table::num(levels[0].cdf_points[p], 0));
    for (const auto& level : levels) {
      row.push_back(p < level.cdf_values.size()
                        ? sim::Table::pct(level.cdf_values[p])
                        : "-");
    }
    cdf_table.row(std::move(row));
  }
  cdf_table.print(std::cout);
  std::printf(
      "\npaper: >55%% of accesses within 50 s of another request in the "
      "same 2-level volume; >82%% follow one within two hours.\n");
  return 0;
}
