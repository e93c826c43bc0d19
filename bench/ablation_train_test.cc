// Ablation: in-sample vs out-of-sample volumes.
//
// The paper builds one set of probability volumes per log and evaluates
// on the *same* log ("we applied a single set of volumes for the duration
// of each log") — an in-sample evaluation. This ablation quantifies the
// optimism: train volumes on the first half of the trace, evaluate on the
// second half, and compare against same-half training. Small gaps mean
// co-access structure is stable over time and the paper's periodic
// (daily/weekly) volume recomputation is sound.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"
#include "trace/transform.h"

using namespace piggyweb;

namespace {

sim::EvalResult evaluate_with(const trace::Trace& training,
                              const trace::Trace& evaluation,
                              double pt, double eff) {
  volume::PairCounterConfig pcc;
  const auto counts = volume::PairCounterBuilder(pcc).build(training, 10);
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = pt;
  pvc.effectiveness_threshold = eff;
  const auto set =
      volume::build_probability_volumes(training, counts, pvc);
  volume::ProbabilityVolumes provider(&set, 200);
  server::TraceMetaOracle meta(evaluation);
  sim::EvalConfig config;
  return sim::PredictionEvaluator(config).run(evaluation, provider, meta);
}

void run_log(const trace::LogProfile& profile, double pt, double eff) {
  const auto workload = trace::generate(profile);
  const auto [train, test] =
      trace::split_at_fraction(workload.trace, 0.5);
  std::printf("(%s: %zu train + %zu test requests; p_t=%.2f eff=%.2f)\n",
              profile.name.c_str(), train.size(), test.size(), pt, eff);

  sim::Table table({"volumes trained on", "recall", "precision",
                    "avg piggyback"});
  const auto in_sample = evaluate_with(test, test, pt, eff);
  table.row({"test half (in-sample, paper's method)",
             sim::Table::pct(in_sample.fraction_predicted()),
             sim::Table::pct(in_sample.true_prediction_fraction()),
             sim::Table::num(in_sample.avg_piggyback_size(), 1)});
  const auto out_of_sample = evaluate_with(train, test, pt, eff);
  table.row({"train half (out-of-sample)",
             sim::Table::pct(out_of_sample.fraction_predicted()),
             sim::Table::pct(out_of_sample.true_prediction_fraction()),
             sim::Table::num(out_of_sample.avg_piggyback_size(), 1)});
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "Ablation: in-sample vs out-of-sample probability volumes");
  const auto run_scope =
      bench::parse_flags(flags, "ablation_train_test", argc, argv);
  const double scale = flags.get_double("scale");
  bench::print_banner(
      "Ablation: in-sample vs out-of-sample probability volumes",
      "out-of-sample recall/precision land close to in-sample (co-access "
      "structure is stable week to week), validating the paper's "
      "same-log evaluation and its periodic-recomputation deployment "
      "story; any gap is the generalization cost");

  run_log(trace::apache_profile(bench::kApacheScale * scale), 0.2, 0.2);
  run_log(trace::sun_profile(bench::kSunScale * scale), 0.2, 0.2);
  return 0;
}
