// Prediction evaluator: replays a server log through a volume provider +
// proxy filter and measures the paper's §3.1 metrics:
//
//   * fraction predicted — requests whose resource appeared in a piggyback
//     to the same source within the last T seconds (recall);
//   * true prediction fraction — piggybacked resources that were then
//     requested within T; multiple mentions inside one T-interval count as
//     a single prediction (precision);
//   * update fraction — requests predicted within T whose resource was
//     previously requested within C (> T) — the cache-coherency payoff;
//   * average piggyback size, per message and per request.
//
// Sources in a server log are the paper's pseudo-proxies. The evaluator
// drives the provider for *every* request (volumes are maintained by all
// traffic) but applies frequency control / RPV suppression to decide which
// responses actually carry piggybacks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/filter.h"
#include "core/piggyback.h"
#include "core/rpv.h"
#include "trace/record.h"

namespace piggyweb::trace {
class TraceView;
}

namespace piggyweb::sim {

namespace detail {
class MetricAccumulator;
}

struct EvalProgress {
  std::size_t done = 0;         // requests completed within the range
  std::size_t total = 0;        // requests in the evaluated range
  std::size_t queue_depth = 0;  // pending pool tasks (0 at one thread)
};

struct EvalConfig {
  util::Seconds prediction_window = 300;       // T
  util::Seconds cache_horizon = 2 * util::kHour;  // C

  core::ProxyFilter filter;  // static filter (maxpiggy, minfreq, pt, ...)

  // RPV suppression: when on, each source keeps an RPV list per server and
  // sends it with every request.
  bool use_rpv = false;
  core::RpvConfig rpv;

  // Frequency control: minimum time between piggybacks from the same
  // server to the same source (0 = off).
  util::Seconds min_piggyback_interval = 0;

  // Progress heartbeat, fired on the evaluating (calling) thread after
  // each replay window with the requests completed so far within the
  // evaluated range. queue_depth is the worker-pool backlog at that
  // instant — always 0 at one thread, which runs without a pool. Purely
  // observational: results are bit-identical with or without a callback
  // installed. Null = off.
  std::function<void(const EvalProgress&)> on_progress;
};

struct EvalResult {
  std::uint64_t requests = 0;
  std::uint64_t predicted_requests = 0;
  std::uint64_t piggyback_messages = 0;
  std::uint64_t piggyback_elements = 0;
  std::uint64_t predictions_made = 0;
  std::uint64_t predictions_true = 0;
  std::uint64_t prev_occurrence_within_horizon = 0;  // < C ("cache hits")
  std::uint64_t prev_occurrence_within_window = 0;   // < T (already fresh)
  std::uint64_t updated_by_piggyback = 0;  // predicted<T, T<prev occ<C

  double fraction_predicted() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(predicted_requests) /
                               static_cast<double>(requests);
  }
  double true_prediction_fraction() const {
    return predictions_made == 0
               ? 0.0
               : static_cast<double>(predictions_true) /
                     static_cast<double>(predictions_made);
  }
  // Elements per message actually sent (the paper's "average piggyback
  // size" for the accuracy/size trade-off figures).
  double avg_piggyback_size() const {
    return piggyback_messages == 0
               ? 0.0
               : static_cast<double>(piggyback_elements) /
                     static_cast<double>(piggyback_messages);
  }
  // Elements per request (piggyback *traffic*; what RPV thinning reduces).
  double elements_per_request() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(piggyback_elements) /
                               static_cast<double>(requests);
  }
  double update_fraction() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(prev_occurrence_within_window +
                                     updated_by_piggyback) /
                     static_cast<double>(requests);
  }
};

// The one-shard evaluator: ParallelEvaluator's loop at one thread, driving
// a caller-built provider.
class PredictionEvaluator {
 public:
  explicit PredictionEvaluator(const EvalConfig& config) : config_(config) {}

  // `trace` must be time-sorted. The provider is driven once per request;
  // `meta` answers size/type/access-count queries for the filter.
  EvalResult run(const trace::Trace& trace, core::VolumeProvider& provider,
                 const core::MetaOracle& meta);

  // Replays straight off a TraceView (a streaming PIGGYTRC cursor or a
  // wrapped in-memory trace) without materializing a Trace; the Trace
  // overload delegates here through a MaterializedTraceView. The view's
  // windows must be time-sorted (checked incrementally, window by window).
  EvalResult run(trace::TraceView& view, core::VolumeProvider& provider,
                 const core::MetaOracle& meta);

 private:
  EvalConfig config_;
};

}  // namespace piggyweb::sim
