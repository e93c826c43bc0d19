// Checkpoint/restore for trace evaluation runs (piggyweb_evaluate).
//
// A run interrupted after request `next_request` saves an EvalSnapshot:
// the per-source metric/protocol state (sim::detail::EvalStateImage), the
// directory-volume contents, a trace fingerprint, and an echo of the
// configuration knobs that shape behaviour. A warm-started run restores
// the snapshot and replays [next_request, N) — producing results
// bit-identical to the uninterrupted run at any thread count.
//
// Two numbering facts make this work:
//
//   * Volume ids are *opaque*: RPV suppression compares them only for
//     equality, and nothing else observes them. The snapshot renumbers
//     volumes into a canonical order — sorted by (server, prefix) — and
//     rewrites the ids inside saved RPV state to canonical indices, so the
//     snapshot bytes do not depend on the saving run's thread count. The
//     restore assigns fresh run ids (per its own shard layout) and
//     translates canonical indices forward.
//
//   * Per-source state keys carry the source id in their high 32 bits, so
//     one flat image re-shards at any source-shard count; the restoring
//     run's sim::source_shard decides ownership, as its volumes'
//     sim::directory_shard does for volume images.
//
// Probability volumes are stateless lookups into a set rebuilt at load
// (trained on the trace or read from a --volumes file), with set-derived
// dense ids — no volume contents to save and no translation needed. The
// snapshot echoes the set's fingerprint instead, so a resume against a
// set built any other way is refused.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "persist/tables.h"
#include "sim/eval_core.h"
#include "sim/parallel_eval.h"
#include "volume/directory.h"
#include "volume/probability.h"

namespace piggyweb::persist {

// Behaviour-shaping knobs echoed into the snapshot; a resume whose flags
// disagree is rejected instead of silently diverging. Directory fields are
// zero for the probability scheme, volume_set is zero for the directory
// scheme.
struct EvalConfigEcho {
  std::string scheme;  // provider scheme_name(): "directory"/"probability"
  util::Seconds prediction_window = 0;
  util::Seconds cache_horizon = 0;
  std::uint32_t filter_max_elements = 0;
  std::uint32_t filter_min_access_count = 0;
  bool use_rpv = false;
  util::Seconds rpv_timeout = 0;
  std::uint64_t rpv_max_entries = 0;
  util::Seconds min_piggyback_interval = 0;
  int directory_level = 0;
  std::uint64_t max_volume_elements = 0;
  std::uint64_t max_candidates = 0;
  std::uint64_t large_size_threshold = 0;
  // volume_set_fingerprint of the replayed probability volumes: it pins
  // every training flag and a pretrained --volumes file alike.
  std::uint64_t volume_set = 0;

  bool operator==(const EvalConfigEcho&) const = default;
};

// FNV-1a over a probability volume set in volume-id order: per volume its
// resource id and entry count, then each entry's resource, probability
// and effectiveness.
std::uint64_t volume_set_fingerprint(const volume::ProbabilityVolumeSet& set);

// The echo of a directory-scheme run and of a probability-scheme run.
EvalConfigEcho make_eval_config_echo(
    const sim::EvalConfig& eval, const volume::DirectoryVolumeConfig& directory);
EvalConfigEcho make_eval_config_echo(const sim::EvalConfig& eval,
                                     const volume::ProbabilityVolumeSet& set);

// A captured mid-run evaluation state, canonical across thread counts:
// saving the same run at --threads=1 and --threads=4 produces identical
// bytes.
struct EvalSnapshot {
  EvalConfigEcho config;
  std::uint64_t next_request = 0;   // first unprocessed request index
  std::uint64_t total_requests = 0;
  // trace::trace_content_fingerprint of the replayed trace, the same
  // whether it was parsed from CLF or mapped from PIGGYTRC. A resume
  // against another trace is refused: intern ids must line up with the
  // saved run.
  std::uint64_t fingerprint = 0;
  // Metric state, sorted by key; directory RPV entries hold canonical
  // volume indices into `volumes`.
  sim::detail::EvalStateImage metrics;
  // Canonical (server, prefix)-sorted volume images; volumes[i].saved_id
  // == i.
  std::vector<DirectoryVolumeImage> volumes;
};

// Collects per-shard provider/accumulator state into a canonical
// snapshot. `providers` holds the run's DirectoryVolumes shards (empty
// for the probability scheme); `accumulators` the per-source-shard metric
// state (disjoint sources). One-thread runs pass one of each.
EvalSnapshot capture_eval_state(
    std::span<const volume::DirectoryVolumes* const> providers,
    std::span<const sim::detail::MetricAccumulator* const> accumulators,
    EvalConfigEcho config, std::uint64_t next_request,
    std::uint64_t total_requests, std::uint64_t fingerprint);

// Snapshot container round trip. parse_ validates structure exhaustively
// (section checksums, sorted keys, id ranges) and never crashes on
// corrupt input. Files go through the codec's write_file_bytes /
// read_file_bytes.
std::string serialize_eval_snapshot(const EvalSnapshot& snapshot);
std::optional<EvalSnapshot> parse_eval_snapshot(std::string_view file,
                                                std::string& error);

// Replays a snapshot into a restarting run: pass hooks() to
// ParallelEvaluator::run_range, at any thread count. The snapshot must
// outlive the restore and the run it seeds.
class EvalRestore {
 public:
  explicit EvalRestore(const EvalSnapshot& snapshot);

  // Hooks bound to this object (capture left unset).
  sim::EvalResumeHooks hooks();

  std::size_t next_request() const {
    return static_cast<std::size_t>(snapshot_->next_request);
  }

 private:
  // Installs the snapshot volumes owned by provider shard `shard` of
  // `shards` (no-op for the probability scheme). Every provider shard
  // must be warmed before the first seed_accumulator call — the hooks
  // contract of ParallelEvaluator::run_range guarantees this.
  void warm_provider(core::VolumeProvider& provider, std::size_t shard,
                     std::size_t shards);

  // Seeds one source shard's accumulator; shard 0 takes the counters.
  void seed_accumulator(sim::detail::MetricAccumulator& accumulator,
                        std::size_t shard, std::size_t shards);

  const EvalSnapshot* snapshot_;
  bool directory_ = false;
  std::size_t warmed_providers_ = 0;
  std::size_t expected_providers_ = 0;
  // canonical volume index -> this run's volume id.
  std::vector<core::VolumeId> run_id_of_;
  // Snapshot metrics with RPV ids translated to run ids (built lazily at
  // the first seed_accumulator call, after all providers are warm).
  std::optional<sim::detail::EvalStateImage> translated_;
};

}  // namespace piggyweb::persist
