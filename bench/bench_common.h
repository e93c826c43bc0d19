// Shared plumbing for the table/figure reproduction binaries: cached
// workload generation, evaluator runners for the two volume families, and
// a --scale command-line knob.
//
// Every binary prints the rows/series of one table or figure from the
// paper. Absolute values differ from 1998 (synthetic logs, scaled sizes);
// the *shape* — orderings, crossovers, knees — is the reproduction target,
// and each binary states what to look for.
#pragma once

#include <memory>
#include <string>

#include "obs/manifest.h"
#include "server/meta.h"
#include "sim/prediction_eval.h"
#include "trace/profiles.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggyweb::bench {

// Parse "--scale=<x>" from argv; returns fallback when absent or not
// positive.
double scale_arg(int argc, char** argv, double fallback);

// Parse "--threads=<n>" from argv; returns fallback when absent. 0 means
// hardware concurrency; 1 (the default) replays on one thread, no pool.
std::size_t threads_arg(int argc, char** argv, std::size_t fallback = 1);

// Parse "--json=<path>" from argv; empty when absent (no JSON report).
std::string json_arg(int argc, char** argv);

// Per-run observability: parses --metrics-out=FILE / --trace-out=FILE /
// --prom-out=FILE and, when any is present, installs the process-global
// registry/tracer for the binary's lifetime and writes the artifacts on
// destruction.
// Declared first in main() so it outlives everything instrumented:
//
//   bench::Observability obs("fig3_directory_accuracy", argc, argv);
//
// With neither flag the global sinks stay null and instrumentation costs
// one pointer load per site.
class Observability {
 public:
  Observability(std::string run_name, int argc, char** argv);

  bool enabled() const { return scope_ != nullptr; }

  // Attach an extra top-level manifest section (no-op when disabled).
  void note(std::string key, obs::Json value);

 private:
  std::unique_ptr<obs::RunScope> scope_;
};

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
