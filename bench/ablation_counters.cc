// Ablation: sampled vs exact pair counters (§3.3.1).
//
// The paper bounds counter memory by creating c(s|r) only with probability
// ~ k / (freq(r) * p_t). This bench quantifies the trade: counter-table
// size and the recall/precision of the resulting p_t = 0.2 volumes, for
// exact counting, several sampling strengths, and the directory-restricted
// variant ("limiting the calculation ... to pairs of resources that have
// the same directory prefix").
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags("Ablation: sampled vs exact pair counters (§3.3.1)");
  const auto run_scope =
      bench::parse_flags(flags, "ablation_counters", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Ablation: sampled vs exact pair counters (Sun)",
      "sampling shrinks the counter table with little recall/precision "
      "loss while strong pairs keep accurate estimates; the directory "
      "restriction cuts counters hardest but loses cross-directory "
      "implications (lower recall)");

  const auto workload =
      trace::generate(trace::sun_profile(bench::kSunScale * scale));
  std::printf("(sun: %zu requests)\n", workload.trace.size());

  struct Variant {
    const char* name;
    bool sampled;
    double k;
    int restrict_level;
  };
  const Variant variants[] = {
      {"exact", false, 0, 0},
      {"sampled k=8", true, 8.0, 0},
      {"sampled k=4", true, 4.0, 0},
      {"sampled k=1", true, 1.0, 0},
      {"exact, same 1-level dir", false, 0, 1},
  };

  sim::Table table({"counting", "counters", "recall", "precision",
                    "avg piggyback"});
  for (const auto& variant : variants) {
    volume::PairCounterConfig pcc;
    pcc.sample_counters = variant.sampled;
    pcc.sample_k = variant.k;
    pcc.sample_threshold = 0.2;
    pcc.restrict_prefix_level = variant.restrict_level;
    const auto counts =
        volume::PairCounterBuilder(pcc).build(workload.trace, 10);

    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = 0.2;
    sim::EvalConfig config;
    const auto run = bench::eval_probability_with_counts(
        workload, counts, pvc, config);
    table.row({variant.name, sim::Table::count(counts.counter_count()),
               sim::Table::pct(run.result.fraction_predicted()),
               sim::Table::pct(run.result.true_prediction_fraction()),
               sim::Table::num(run.result.avg_piggyback_size(), 1)});
  }
  table.print(std::cout);
  std::printf(
      "\nreading: the sampler's memory/accuracy dial (k) trades counter "
      "count against tail-pair coverage; estimates for frequently "
      "co-occurring pairs stay unbiased because counts start from counter "
      "creation.\n");
  return 0;
}
