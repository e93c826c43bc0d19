// Figure 7: true prediction fraction (precision) vs average piggyback
// size — (a) AIUSA, (b) Sun. The paper's key observation: the *base*
// curve can be non-monotonic (pairs with high implication probability but
// low effective probability bloat messages without adding true
// predictions), while effectiveness thinning restores the expected
// monotone smaller-is-more-precise behaviour.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

using namespace piggyweb;

namespace {

void run_log(const trace::LogProfile& profile, std::size_t threads) {
  const auto workload = trace::generate(profile);
  std::printf("(%s: %zu requests)\n", profile.name.c_str(),
              workload.trace.size());
  const auto counts = bench::pair_counts(workload);

  sim::Table table({"p_t", "base avg size", "base precision",
                    "thinned avg size", "thinned precision"});
  for (const double pt :
       {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}) {
    volume::ProbabilityVolumeConfig base;
    base.probability_threshold = pt;
    const auto base_run = bench::eval_probability_with_counts(
        workload, counts, base, {}, threads);

    volume::ProbabilityVolumeConfig thinned = base;
    thinned.effectiveness_threshold = 0.2;
    const auto thin_run = bench::eval_probability_with_counts(
        workload, counts, thinned, {}, threads);

    table.row(
        {sim::Table::num(pt, 2),
         sim::Table::num(base_run.result.avg_piggyback_size(), 1),
         sim::Table::pct(base_run.result.true_prediction_fraction()),
         sim::Table::num(thin_run.result.avg_piggyback_size(), 1),
         sim::Table::pct(thin_run.result.true_prediction_fraction())});
  }
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Observability observability("fig7_true_prediction", argc, argv);
  const double scale = bench::scale_arg(argc, argv, 1.0);
  const std::size_t threads = bench::threads_arg(argc, argv);
  bench::print_banner(
      "Figure 7: true prediction fraction vs avg piggyback size",
      "precision rises as p_t tightens (smaller piggybacks); thinned "
      "volumes dominate the base curve; any base-curve dip at mid sizes "
      "(non-monotonicity, clearest for Sun) disappears after thinning");

  run_log(trace::aiusa_profile(bench::kAiusaScale * scale), threads);
  run_log(trace::sun_profile(bench::kSunScale * scale), threads);
  return 0;
}
