// Shared plumbing for the table/figure reproduction binaries: the command
// line, cached workload generation, and evaluator runners for the two
// volume families.
//
// Every binary prints the rows/series of one table or figure from the
// paper. Absolute values differ from 1998 (synthetic logs, scaled sizes);
// the *shape* — orderings, crossovers, knees — is the reproduction target,
// and each binary states what to look for.
#pragma once

#include <memory>
#include <string>

#include "cli_common.h"
#include "obs/manifest.h"
#include "server/meta.h"
#include "sim/prediction_eval.h"
#include "trace/profiles.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggyweb::bench {

// Registers --threads=<n> for the benches that replay on shards; read it
// back with threads_flag().
void add_threads_flag(tools::FlagSet& flags);

// Adds --scale=<x> (default 1) and the observability flags
// (tools::add_observability_flags) to what the caller registered, then
// parses argv. An unknown or malformed flag, --help or a --scale that is
// not a finite number > 0 exits 2. Returns the run's observability scope,
// null when no artifact was asked for; hold it for the whole of main() so
// it outlives everything instrumented:
//
//   tools::FlagSet flags("Figure 3: ...");
//   bench::add_threads_flag(flags);
//   const auto run_scope =
//       bench::parse_flags(flags, "fig3_directory_accuracy", argc, argv);
std::unique_ptr<obs::RunScope> parse_flags(tools::FlagSet& flags,
                                           std::string run_name, int argc,
                                           char** argv);

// The parsed --threads: 0 means hardware concurrency; 1 (the default)
// replays on one thread, no pool. A negative value exits 2.
std::size_t threads_flag(const tools::FlagSet& flags);

// Default bench scales keep each binary within seconds on one core while
// leaving enough traffic for stable statistics.
inline constexpr double kAiusaScale = 0.30;   // ~54 k requests
inline constexpr double kMarimbaScale = 0.25; // ~55 k requests
inline constexpr double kApacheScale = 0.02;  // ~58 k requests
inline constexpr double kSunScale = 0.012;    // ~156 k requests
inline constexpr double kAttScale = 0.06;     // ~66 k requests
inline constexpr double kDigitalScale = 0.012;

// Evaluate directory-based volumes over a workload on `threads` shards (0 =
// hardware); results are bit-identical for any thread count.
sim::EvalResult eval_directory(const trace::SyntheticWorkload& workload,
                               int level, const sim::EvalConfig& config,
                               std::size_t max_candidates = 200,
                               std::size_t threads = 1);

// Build probability volumes (optionally thinned/combined) and evaluate.
struct ProbabilityRun {
  sim::EvalResult result;
  volume::VolumeSetStats volume_stats;
};
ProbabilityRun eval_probability(const trace::SyntheticWorkload& workload,
                                const volume::ProbabilityVolumeConfig& pvc,
                                const sim::EvalConfig& config,
                                std::uint64_t min_resource_count = 10,
                                std::size_t threads = 1);

// Same, but reusing precomputed pair counts (sweeps over p_t re-threshold
// the same counters, like the paper's post-processing).
ProbabilityRun eval_probability_with_counts(
    const trace::SyntheticWorkload& workload,
    const volume::PairCounts& counts,
    const volume::ProbabilityVolumeConfig& pvc,
    const sim::EvalConfig& config, std::size_t threads = 1);

// Pair counts for a workload (exact counters, window T = 300 s).
volume::PairCounts pair_counts(const trace::SyntheticWorkload& workload,
                               std::uint64_t min_resource_count = 10,
                               util::Seconds window = 300);

// Header banner shared by all binaries.
void print_banner(const std::string& title, const std::string& what_to_check);

}  // namespace piggyweb::bench
