#include "bench_common.h"

#include <cstdio>
#include <optional>

#include "sim/parallel_eval.h"
#include "util/strings.h"

namespace piggyweb::bench {

namespace {

// Value of the first "--name=value" argv entry matching `flag`, or
// nullopt when absent.
std::optional<std::string_view> raw_flag(int argc, char** argv,
                                         std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (util::starts_with(arg, flag)) return arg.substr(flag.size());
  }
  return std::nullopt;
}

void warn_malformed(std::string_view flag, std::string_view raw) {
  std::fprintf(stderr, "ignoring malformed %.*s%.*s\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(raw.size()), raw.data());
}

// Value of the first "--name=value" argv entry matching `flag` (the full
// prefix, equals sign included), or "" when absent.
std::string string_arg(int argc, char** argv, std::string_view flag) {
  const auto raw = raw_flag(argc, argv, flag);
  return raw ? std::string(*raw) : std::string();
}

// As string_arg, parsed; a malformed value warns on stderr and falls back.
double double_arg(int argc, char** argv, std::string_view flag,
                  double fallback) {
  const auto raw = raw_flag(argc, argv, flag);
  if (!raw) return fallback;
  double value = 0;
  if (util::parse_double(*raw, value)) return value;
  warn_malformed(flag, *raw);
  return fallback;
}

std::uint64_t u64_arg(int argc, char** argv, std::string_view flag,
                      std::uint64_t fallback) {
  const auto raw = raw_flag(argc, argv, flag);
  if (!raw) return fallback;
  std::uint64_t value = 0;
  if (util::parse_u64(*raw, value)) return value;
  warn_malformed(flag, *raw);
  return fallback;
}

}  // namespace

double scale_arg(int argc, char** argv, double fallback) {
  const double value = double_arg(argc, argv, "--scale=", fallback);
  if (value <= 0) {
    std::fprintf(stderr, "ignoring non-positive --scale\n");
    return fallback;
  }
  return value;
}

std::size_t threads_arg(int argc, char** argv, std::size_t fallback) {
  return static_cast<std::size_t>(
      u64_arg(argc, argv, "--threads=", fallback));
}

std::string json_arg(int argc, char** argv) {
  return string_arg(argc, argv, "--json=");
}

Observability::Observability(std::string run_name, int argc, char** argv) {
  obs::RunScope::Options options;
  options.run_name = std::move(run_name);
  options.metrics_path = string_arg(argc, argv, "--metrics-out=");
  options.trace_path = string_arg(argc, argv, "--trace-out=");
  options.prom_path = string_arg(argc, argv, "--prom-out=");
  if (options.metrics_path.empty() && options.trace_path.empty() &&
      options.prom_path.empty()) {
    return;
  }
  options.argv.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) options.argv.emplace_back(argv[i]);
  scope_ = std::make_unique<obs::RunScope>(std::move(options));
}

void Observability::note(std::string key, obs::Json value) {
  if (scope_ != nullptr) scope_->note(std::move(key), std::move(value));
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
