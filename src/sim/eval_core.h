// Shared core of the prediction evaluators.
//
// The evaluation of one request factors into two halves with disjoint
// state:
//   1. the *provider* half — VolumeProvider::on_request_filtered, which
//      observes the request and builds its message under the static proxy
//      filter; state partitions by volume (directory volumes) or is absent
//      (probability volumes);
//   2. the *metrics* half — prediction/true-prediction/update accounting,
//      frequency control, and RPV suppression; state partitions by source
//      (the paper's pseudo-proxies are independent prediction streams,
//      §3.1).
// MetricAccumulator is that second half. replay() is the one loop that
// runs both: half 1 sharded by volume, half 2 sharded by source, each
// source's requests fed to its accumulator in trace order. Both
// PredictionEvaluator (one shard) and ParallelEvaluator (one shard per
// thread) run it, which is why every thread count produces bit-identical
// EvalResults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/piggyback.h"
#include "core/rpv.h"
#include "sim/prediction_eval.h"
#include "trace/record.h"
#include "util/flat_map.h"

namespace piggyweb::sim::detail {

// Sentinel "long ago" for first-touch comparisons.
inline constexpr util::Seconds kNever = -(1LL << 60);

// Requests per shard in one replay() window. Windows amortize the
// bucketing and the pool hand-off of each stage; the per-request
// evaluation *sequence* is unchanged, so window size never affects
// results. Each hand-off wakes workers that sat idle through the
// previous stage, which costs about a millisecond on a virtual machine
// and varies with its host's load; 16,384 rows keep the two hand-offs
// per window a small and steady share of a window's work now that stage
// 1 stops at a full message.
inline constexpr std::size_t kEvalBatchRequests = 16384;

// The provider-facing view of a trace request. `type` comes from a
// trace::PathTypeTable so the hot loop never re-scans path strings.
inline core::VolumeRequest make_volume_request(const trace::Request& req,
                                               trace::ContentType type) {
  core::VolumeRequest vr;
  vr.server = req.server;
  vr.source = req.source;
  vr.path = req.path;
  vr.time = req.time;
  vr.size = req.size;
  vr.type = type;
  return vr;
}

struct ResourceState {
  util::Seconds last_access = kNever;
  util::Seconds last_mention = kNever;   // any piggyback mention
  util::Seconds interval_open = kNever;  // start of current prediction
  bool fulfilled = false;

  bool operator==(const ResourceState&) const = default;
};

// Packs two dense 32-bit ids into one map key.
inline std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// Flattened accumulator state for checkpointing. Every key's high 32 bits
// are the source id, so the image re-shards cleanly at any source-shard
// count. Entry order is unspecified; the persist layer sorts by key for
// canonical snapshot bytes.
struct EvalStateImage {
  EvalResult counters;
  std::vector<std::pair<std::uint64_t, ResourceState>> resource_state;
  std::vector<std::pair<std::uint64_t, util::Seconds>> last_piggy;
  std::vector<std::pair<std::uint64_t, std::vector<core::RpvEntry>>> rpv;
};

// Metric + per-source protocol state for a set of sources. Feed every
// request of an owned source, in trace order, together with the piggyback
// message the server would send under the *static* filter (frequency
// control and RPV suppression are per-source and applied here). Only the
// element resource ids matter for the metrics, so that is all observe()
// takes.
//
// §3.1 looks back only T (predictions) and C (updates), frequency control
// only min_piggyback_interval, and an RPV list only its timeout. An entry
// whose every timestamp is past the window that reads it is *dead*:
// observe() cannot tell it from an absent one, at its time or any later
// one. observe() drops the dead entries of all three tables once per C of
// trace time, so the tables hold the pairs active within C instead of
// every pair the trace ever touched. The cadence changes memory only,
// never a result.
class MetricAccumulator {
 public:
  explicit MetricAccumulator(const EvalConfig& config) : config_(&config) {}

  void observe(const trace::Request& request, core::VolumeId volume,
               std::span<const util::InternId> resources);

  const EvalResult& result() const { return result_; }

  // The latest request time observed, or imported with a snapshot (kNever
  // before either). The latest over all accumulators of a stopped run is
  // the time of its last request: the run's capture time.
  util::Seconds latest_time() const { return latest_; }

  // Appends the state live at `now` (a capture time, at or after
  // latest_time()) to `image`; counters are summed. Dead entries are left
  // out and stale fields of live ones reset, the same rule the sweep
  // applies, so the image is the same whenever this accumulator swept.
  // Accumulators from disjoint source shards hold disjoint keys, so
  // exporting them all into one image is an exact union.
  void export_state(EvalStateImage& image, util::Seconds now) const;

  // Installs the image entries whose source (high 32 bits of the key)
  // passes `owns`. Exactly one accumulator per restore takes the summed
  // counters, or the merged total double-counts. Dead entries (an image
  // written before export filtered them) load too and go at the first
  // sweep.
  void import_state(const EvalStateImage& image,
                    const std::function<bool(util::InternId source)>& owns,
                    bool take_counters);

 private:
  // What observe() can still read of `state` at `now` and later: each
  // timestamp past the window that reads it becomes kNever, and
  // `fulfilled` false once its interval has closed. The entry is dead
  // when this is ResourceState{}.
  ResourceState live_part(ResourceState state, util::Seconds now) const;
  bool piggy_dead(util::Seconds last, util::Seconds now) const;

  // Drops every entry dead at `now`.
  void sweep(util::Seconds now);

  const EvalConfig* config_;
  EvalResult result_;
  util::Seconds latest_ = kNever;
  util::Seconds last_sweep_ = kNever;
  // (source, resource) -> state. Sources and resources are dense ids.
  util::FlatMap<std::uint64_t, ResourceState> state_;
  // (source, server) -> last piggyback time (frequency control; written
  // only when min_piggyback_interval > 0).
  util::FlatMap<std::uint64_t, util::Seconds> last_piggy_;
  // (source, server) -> RPV list.
  util::FlatMap<std::uint64_t, core::RpvList> rpv_;
};

// Merge partial results from disjoint request sets: every field is a
// count over per-request events, so integer addition is an exact,
// order-independent merge.
EvalResult merge_results(std::span<const EvalResult> partials);

// Publish the final result's counters into the global metrics registry
// (no-op when none is installed). Both evaluators call this with their
// merged result, so the deterministic `eval.*` counters are identical
// regardless of which evaluator ran or how many threads it used.
void publish_eval_result(const EvalResult& result);

// The window loop behind both evaluators: replays requests [begin, end)
// of `view` through one provider and one accumulator per shard
// (providers.size() == accumulators.size()). Each window holds
// kEvalBatchRequests rows per shard. Its rows are bucketed once by
// provider shard (`provider_shard`; unused, and may be null, at one
// shard) and once by source shard (source_shard()); stage 1 then has each
// provider shard build its rows' filtered messages (on_request_filtered,
// in trace order), and stage 2 feeds
// each source shard's rows to its accumulator in trace order. One shard
// runs both stages inline; N shards run on an N-thread pool whose
// wait-state metrics publish under `parallel_eval.pool`. Fires
// config.on_progress after every window. The view's windows must be
// time-sorted (checked incrementally, window by window).
void replay(const EvalConfig& config, trace::TraceView& view,
            std::span<core::VolumeProvider* const> providers,
            const std::function<std::size_t(const trace::Request& request,
                                            std::size_t shards)>&
                provider_shard,
            std::span<MetricAccumulator> accumulators,
            const core::MetaOracle& meta, std::size_t begin, std::size_t end);

}  // namespace piggyweb::sim::detail
