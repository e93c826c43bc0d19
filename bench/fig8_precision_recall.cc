// Figure 8: precision vs recall for probability volumes thinned with an
// effective-probability threshold of 0.2 (the setting the paper found
// consistently best for a given piggyback size), traced by sweeping p_t,
// for all server logs. Directory volumes are shown for contrast — the
// paper notes they generate 70-90% false predictions even with filtering.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "Figure 8: precision vs recall of thinned probability volumes");
  const auto run_scope =
      bench::parse_flags(flags, "fig8_precision_recall", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Figure 8: precision vs recall (effective threshold 0.2)",
      "as p_t loosens, recall rises while precision falls, tracing a "
      "frontier; Marimba sits far below the other logs; directory "
      "volumes land at markedly lower precision for comparable recall");

  const trace::LogProfile profiles[] = {
      trace::aiusa_profile(bench::kAiusaScale * scale),
      trace::marimba_profile(bench::kMarimbaScale * scale),
      trace::apache_profile(bench::kApacheScale * scale),
      trace::sun_profile(bench::kSunScale * scale),
  };
  for (const auto& profile : profiles) {
    const auto workload = trace::generate(profile);
    std::printf("(%s: %zu requests)\n", profile.name.c_str(),
                workload.trace.size());
    const auto counts = bench::pair_counts(workload);

    sim::Table table({"p_t", "recall", "precision", "avg size"});
    for (const double pt : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7}) {
      volume::ProbabilityVolumeConfig pvc;
      pvc.probability_threshold = pt;
      pvc.effectiveness_threshold = 0.2;
      const auto run =
          bench::eval_probability_with_counts(workload, counts, pvc, {});
      table.row({sim::Table::num(pt, 2),
                 sim::Table::pct(run.result.fraction_predicted()),
                 sim::Table::pct(run.result.true_prediction_fraction()),
                 sim::Table::num(run.result.avg_piggyback_size(), 1)});
    }
    // Directory-volume contrast point (1-level, access filter 10).
    sim::EvalConfig dir_config;
    dir_config.filter.min_access_count = 10;
    const auto dir = bench::eval_directory(workload, 1, dir_config);
    table.row({"dir-1", sim::Table::pct(dir.fraction_predicted()),
               sim::Table::pct(dir.true_prediction_fraction()),
               sim::Table::num(dir.avg_piggyback_size(), 1)});
    table.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
