#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "sim/parallel_eval.h"

namespace piggyweb::bench {

void add_threads_flag(tools::FlagSet& flags) {
  flags.add_int("threads", 1,
                "replay threads, one shard each (1 = no worker pool, 0 = "
                "hardware concurrency); results are identical for any "
                "value");
}

std::unique_ptr<obs::RunScope> parse_flags(tools::FlagSet& flags,
                                           std::string run_name, int argc,
                                           char** argv) {
  flags.add_positive_double(
      "scale", 1.0, "workload scale (1 = the bench's default request counts)");
  tools::add_observability_flags(flags);
  if (!flags.parse(argc, argv)) std::exit(2);
  return tools::make_run_scope(flags, std::move(run_name), argc, argv);
}

std::size_t threads_flag(const tools::FlagSet& flags) {
  const auto threads = flags.get_int("threads");
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    std::exit(2);
  }
  return static_cast<std::size_t>(threads);
}

sim::EvalResult eval_directory(const trace::SyntheticWorkload& workload,
                               int level, const sim::EvalConfig& config,
                               std::size_t max_candidates,
                               std::size_t threads) {
  volume::DirectoryVolumeConfig dvc;
  dvc.level = level;
  dvc.max_candidates = max_candidates;
  server::TraceMetaOracle meta(workload.trace);
  sim::ParallelEvalConfig par;
  par.threads = threads;
  return sim::ParallelEvaluator(config, par).run(
      workload.trace, sim::shard_directory_volumes(dvc, workload.trace), meta);
}

volume::PairCounts pair_counts(const trace::SyntheticWorkload& workload,
                               std::uint64_t min_resource_count,
                               util::Seconds window) {
  volume::PairCounterConfig pcc;
  pcc.window = window;
  return volume::PairCounterBuilder(pcc).build(workload.trace,
                                               min_resource_count);
}

ProbabilityRun eval_probability_with_counts(
    const trace::SyntheticWorkload& workload,
    const volume::PairCounts& counts,
    const volume::ProbabilityVolumeConfig& pvc,
    const sim::EvalConfig& config, std::size_t threads) {
  const auto set =
      volume::build_probability_volumes(workload.trace, counts, pvc);
  server::TraceMetaOracle meta(workload.trace);
  sim::ParallelEvalConfig par;
  par.threads = threads;
  return {sim::ParallelEvaluator(config, par).run(
              workload.trace,
              sim::shard_probability_volumes(&set, pvc.max_candidates), meta),
          set.stats()};
}

ProbabilityRun eval_probability(const trace::SyntheticWorkload& workload,
                                const volume::ProbabilityVolumeConfig& pvc,
                                const sim::EvalConfig& config,
                                std::uint64_t min_resource_count,
                                std::size_t threads) {
  const auto counts = pair_counts(workload, min_resource_count, pvc.window);
  return eval_probability_with_counts(workload, counts, pvc, config,
                                      threads);
}

void print_banner(const std::string& title,
                  const std::string& what_to_check) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("shape to check: %s\n\n", what_to_check.c_str());
}

}  // namespace piggyweb::bench
