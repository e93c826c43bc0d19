// Figure 6: fraction predicted vs average piggyback size for
// probability-based volumes — (a) AIUSA, (b) Sun. Each point comes from
// one probability threshold; the thinned (effective-implications) curve
// reaches the same recall at visibly smaller piggyback sizes, most
// dramatically for Sun.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

using namespace piggyweb;

namespace {

void run_log(const trace::LogProfile& profile) {
  const auto workload = trace::generate(profile);
  std::printf("(%s: %zu requests)\n", profile.name.c_str(),
              workload.trace.size());
  const auto counts = bench::pair_counts(workload);

  sim::Table table({"p_t", "base avg size", "base predicted",
                    "thinned avg size", "thinned predicted"});
  for (const double pt :
       {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}) {
    volume::ProbabilityVolumeConfig base;
    base.probability_threshold = pt;
    const auto base_run =
        bench::eval_probability_with_counts(workload, counts, base, {});

    volume::ProbabilityVolumeConfig thinned = base;
    thinned.effectiveness_threshold = 0.2;
    const auto thin_run =
        bench::eval_probability_with_counts(workload, counts, thinned, {});

    table.row({sim::Table::num(pt, 2),
               sim::Table::num(base_run.result.avg_piggyback_size(), 1),
               sim::Table::pct(base_run.result.fraction_predicted()),
               sim::Table::num(thin_run.result.avg_piggyback_size(), 1),
               sim::Table::pct(thin_run.result.fraction_predicted())});
  }
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "Figure 6: fraction predicted vs average piggyback size");
  const auto run_scope =
      bench::parse_flags(flags, "fig6_predicted_vs_size", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Figure 6: fraction predicted vs avg piggyback size (probability)",
      "prediction rate grows with piggyback size with diminishing "
      "returns; at any recall the thinned curve needs fewer elements; "
      "compared with Figure 3 the same recall costs far smaller "
      "piggybacks than directory volumes");

  run_log(trace::aiusa_profile(bench::kAiusaScale * scale));
  run_log(trace::sun_profile(bench::kSunScale * scale));
  return 0;
}
