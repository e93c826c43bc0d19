// Figure 5 (Sun log):
//   (a) fraction predicted vs probability threshold p_t for the base
//       probability volumes, effectiveness-thinned variants (0.1, 0.2),
//       and "combined" volumes (pairs restricted to a shared 1-level
//       prefix);
//   (b) the distribution of implication probabilities across counted
//       pairs.
// Also prints the §3.3.2 structural statistics (self/symmetric fractions).
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  bench::Observability observability("fig5_probability_threshold", argc, argv);
  const double scale = bench::scale_arg(argc, argv, 1.0);
  const std::size_t threads = bench::threads_arg(argc, argv);
  bench::print_banner(
      "Figure 5: fraction predicted vs probability threshold (Sun)",
      "(a) all four curves fall as p_t rises; thinning (eff 0.1/0.2) "
      "tracks the base curve closely; combined volumes sit lowest; (b) "
      "implication probabilities spread across the whole range with mass "
      "at high values (embedded images / popular HREFs)");

  const auto workload =
      trace::generate(trace::sun_profile(bench::kSunScale * scale));
  std::printf("(sun: %zu requests)\n", workload.trace.size());
  const auto counts = bench::pair_counts(workload);
  std::printf("pair counters: %zu\n\n", counts.counter_count());

  struct Variant {
    const char* name;
    double eff;
    int combine;
  };
  const Variant variants[] = {{"base", 0.0, 0},
                              {"eff 0.1", 0.1, 0},
                              {"eff 0.2", 0.2, 0},
                              {"combined (1-level)", 0.0, 1}};

  sim::Table table({"p_t", "base", "eff 0.1", "eff 0.2",
                    "combined (1-level)"});
  for (const double pt : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    std::vector<std::string> row = {sim::Table::num(pt, 2)};
    for (const auto& variant : variants) {
      volume::ProbabilityVolumeConfig pvc;
      pvc.probability_threshold = pt;
      pvc.effectiveness_threshold = variant.eff;
      pvc.combine_prefix_level = variant.combine;
      sim::EvalConfig config;
      const auto run = bench::eval_probability_with_counts(
          workload, counts, pvc, config, threads);
      row.push_back(sim::Table::pct(run.result.fraction_predicted()));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);

  // --- (b) implication probability distribution ----------------------------
  auto probs = counts.all_probabilities();
  std::sort(probs.begin(), probs.end());
  std::printf("\nimplication probability CDF over %zu counted pairs:\n",
              probs.size());
  sim::Table cdf({"p", "fraction of pairs with p(s|r) <= p"});
  for (const double p : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    const auto below = std::upper_bound(probs.begin(), probs.end(), p);
    cdf.row({sim::Table::num(p, 2),
             sim::Table::pct(static_cast<double>(below - probs.begin()) /
                             static_cast<double>(probs.size()))});
  }
  cdf.print(std::cout);

  // --- §3.3.2 structural stats -----------------------------------------------
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.2;
  const auto run = bench::eval_probability_with_counts(workload, counts,
                                                       pvc, {}, threads);
  std::printf(
      "\nvolume structure at p_t=0.2: %zu volumes, avg size %.1f, "
      "self-membership %.1f%% (paper ~1%%), symmetric entries %.1f%% "
      "(paper 3-18%%), avg volumes/resource %.2f\n",
      run.volume_stats.volumes, run.volume_stats.avg_volume_size,
      run.volume_stats.self_fraction * 100.0,
      run.volume_stats.symmetric_fraction * 100.0,
      run.volume_stats.avg_volumes_per_resource);
  return 0;
}
