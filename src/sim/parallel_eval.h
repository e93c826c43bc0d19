// Sharded evaluation engine.
//
// Replays a trace through a volume provider + proxy filter on N threads
// while producing results *bit-identical* to PredictionEvaluator — for
// any trace, configuration, and thread count. Both evaluators run the same
// window loop (detail::replay, sim/eval_core.h); N threads run N shards of
// each of its two stages on a pool, one thread runs them inline:
//
//   stage 1 (provider): requests are sharded by *volume key* (server +
//     k-level directory prefix for directory volumes; any stable hash for
//     stateless probability volumes). Each shard owns a private provider
//     instance, so the per-volume FIFO/move-to-front state evolves exactly
//     as in a one-shard run — a volume's requests are always handled by
//     the same shard, in trace order. The shard applies the static proxy
//     filter to each of its requests.
//
//   stage 2 (metrics): requests are sharded by *source*. Each shard owns
//     the metric/frequency-control/RPV state for its sources (the paper's
//     pseudo-proxies are independent prediction streams) and replays the
//     stage-1 messages through its MetricAccumulator in trace order.
//
// Per-shard partial results merge by integer addition, so the totals do
// not depend on thread count or scheduling. Directory-volume ids are
// numbered offset/stride per shard (globally unique), which RPV equality
// checks cannot distinguish from one-shard numbering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "sim/prediction_eval.h"
#include "util/hash.h"
#include "volume/directory.h"
#include "volume/probability.h"

namespace piggyweb::sim {

struct ParallelEvalConfig {
  std::size_t threads = 0;  // 0 = hardware concurrency
};

// The two ownership rules of a sharded run, shared by the replay loop and
// snapshot restore. Source shard: owns a source's metric state.
inline std::size_t source_shard(util::InternId source, std::size_t shards) {
  return static_cast<std::size_t>(util::mix64(source) % shards);
}

// Directory-volume shard: owns the volume (server, prefix), given the
// prefix's util::fnv1a hash.
inline std::size_t directory_shard(util::InternId server,
                                   std::uint64_t prefix_hash,
                                   std::size_t shards) {
  return static_cast<std::size_t>(util::hash_combine(server, prefix_hash) %
                                  shards);
}

// How to build and address per-shard provider instances.
struct ShardedProviderSpec {
  // Builds the provider owning shard `shard` of `shards`.
  std::function<std::unique_ptr<core::VolumeProvider>(std::size_t shard,
                                                      std::size_t shards)>
      make;
  // Maps a request to the shard whose provider must see it. Requests that
  // touch the same provider state (the same volume) MUST map to the same
  // shard; stateless providers may use any stable function of the request.
  std::function<std::size_t(const trace::Request& request,
                            std::size_t shards)>
      shard_of;
};

// Directory volumes: shard by (server, directory-prefix) — the volume key —
// so each volume's FIFO state lives wholly in one shard. Shard k of S gets
// volume ids k, k+S, k+2S, ... (see DirectoryVolumeConfig::id_offset).
// The spec borrows the path table (a view into a Trace or an mmap'd
// container); the table's backing must outlive the spec. Building the spec
// precomputes one prefix hash per distinct path, so shard_of never hashes
// a string per request.
ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, util::StringTableView paths);
ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, const trace::Trace& trace);

// Probability volumes: stateless lookups into a shared immutable set; any
// stable hash balances the work. `set` must outlive the returned spec.
ShardedProviderSpec shard_probability_volumes(
    const volume::ProbabilityVolumeSet* set, std::size_t max_candidates);

struct ParallelEvalStats {
  std::size_t threads = 0;
  std::size_t volume_count = 0;  // summed over shard providers
};

// Checkpoint/restore hooks for run_range. The evaluator guarantees the
// ordering: every warm_provider call completes before any request is
// processed, seed_accumulator likewise, and capture runs after the last
// request of the range, before results merge — so captured state is
// exactly the state an uninterrupted run would carry past `end`.
struct EvalResumeHooks {
  // Seed one freshly built provider shard's volume state.
  std::function<void(core::VolumeProvider& provider, std::size_t shard,
                     std::size_t shards)>
      warm_provider;
  // Seed one source shard's metric/frequency/RPV state.
  std::function<void(detail::MetricAccumulator& accumulator, std::size_t shard,
                     std::size_t shards)>
      seed_accumulator;
  // Observe final per-shard state (providers indexed by provider shard,
  // accumulators by source shard).
  std::function<void(
      std::span<core::VolumeProvider* const> providers,
      std::span<detail::MetricAccumulator* const> accumulators)>
      capture;
};

class ParallelEvaluator {
 public:
  ParallelEvaluator(const EvalConfig& config, const ParallelEvalConfig& par)
      : config_(config), par_(par) {}

  // `trace` must be time-sorted. Returns exactly what
  // PredictionEvaluator::run would return for an equivalent provider.
  EvalResult run(const trace::Trace& trace,
                 const ShardedProviderSpec& provider,
                 const core::MetaOracle& meta,
                 ParallelEvalStats* stats = nullptr);

  // Replays straight off a TraceView (a streaming PIGGYTRC cursor or a
  // wrapped in-memory trace): no request is held beyond the current
  // window, and the accumulators' state is bounded by the pairs active
  // within the cache horizon, not by the trace's length. The view's
  // windows must be time-sorted (checked incrementally, window by
  // window).
  EvalResult run(trace::TraceView& view, const ShardedProviderSpec& provider,
                 const core::MetaOracle& meta,
                 ParallelEvalStats* stats = nullptr);

  // Checkpoint-grade variant: replays requests [begin, end) with optional
  // resume hooks (nullptr = cold start). Publishes the eval.* metrics only
  // when `publish` is set — a partial run's counters are not final.
  EvalResult run_range(trace::TraceView& view,
                       const ShardedProviderSpec& provider,
                       const core::MetaOracle& meta, std::size_t begin,
                       std::size_t end, bool publish,
                       const EvalResumeHooks* hooks,
                       ParallelEvalStats* stats = nullptr);

 private:
  EvalConfig config_;
  ParallelEvalConfig par_;
};

}  // namespace piggyweb::sim
