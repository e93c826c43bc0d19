#include "sim/prediction_eval.h"

#include <algorithm>

#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/eval_core.h"
#include "trace/stream.h"

namespace piggyweb::sim {

namespace detail {

MetricAccumulator::MetricAccumulator(const EvalConfig& config)
    : config_(&config),
      rotation_interval_(std::max({config.cache_horizon,
                                   config.prediction_window,
                                   config.min_piggyback_interval,
                                   config.rpv.timeout, util::Seconds{1}})) {}

void MetricAccumulator::observe(const trace::Request& req,
                                core::VolumeId volume,
                                std::span<const util::InternId> resources) {
  const auto T = config_->prediction_window;
  const auto t = req.time.value;
  const auto C = config_->cache_horizon;

  // Rotate at the first request at least one rotation interval after the
  // previous rotation. The test is a difference, not t + interval: C, and
  // with it the interval, may be as large as 2^63 - 1.
  latest_ = t;
  if (last_rotation_ == kNever) {
    last_rotation_ = t;
  } else if (t - last_rotation_ >= rotation_interval_) {
    last_rotation_ = t;
    state_.rotate();
    last_piggy_.rotate();
    rpv_.rotate();
  }

  ++result_.requests;
  auto& rs = state_.touch(pair_key(req.source, req.path));

  // --- metrics, evaluated against state from *earlier* requests --------
  const bool predicted =
      rs.last_mention != kNever && t - rs.last_mention <= T;
  if (predicted) ++result_.predicted_requests;
  const bool prev_within_horizon =
      rs.last_access != kNever && t - rs.last_access <= C;
  const bool prev_within_window =
      rs.last_access != kNever && t - rs.last_access <= T;
  if (prev_within_horizon) ++result_.prev_occurrence_within_horizon;
  if (prev_within_window) ++result_.prev_occurrence_within_window;
  if (predicted && prev_within_horizon && !prev_within_window) {
    ++result_.updated_by_piggyback;
  }

  // --- true-prediction fulfilment ---------------------------------------
  if (!rs.fulfilled && rs.interval_open != kNever &&
      t - rs.interval_open <= T) {
    ++result_.predictions_true;
    rs.fulfilled = true;
  }

  rs.last_access = t;

  // --- proxy side: frequency control + RPV suppression -------------------
  // The incoming (volume, resources) already passed the static filter;
  // both remaining controls only suppress the message as a whole, so this
  // is exactly equivalent to feeding them into apply_filter().
  bool enabled = config_->filter.enabled;
  const auto pair = pair_key(req.source, req.server);
  if (config_->min_piggyback_interval > 0) {
    const auto* last = last_piggy_.find(pair);
    if (last != nullptr && t - *last < config_->min_piggyback_interval) {
      enabled = false;
    }
  }
  bool suppressed = volume == core::kNoVolume || resources.empty();
  core::RpvList* rpv_list = nullptr;
  if (config_->use_rpv && enabled) {
    rpv_list = &rpv_.touch(pair, config_->rpv);
    // Checked even when the message is already suppressed: the check
    // expires the FIFO, and snapshot images carry the raw FIFO.
    if (rpv_list->contains(volume, req.time)) suppressed = true;
  }
  if (!enabled || suppressed) return;

  ++result_.piggyback_messages;
  result_.piggyback_elements += resources.size();
  if (config_->min_piggyback_interval > 0) last_piggy_.touch(pair) = t;
  if (rpv_list != nullptr) rpv_list->note(volume, req.time);

  for (const auto resource : resources) {
    auto& es = state_.touch(pair_key(req.source, resource));
    es.last_mention = t;
    if (es.interval_open == kNever || t - es.interval_open > T) {
      // A new prediction interval opens; multiple mentions within one
      // interval count once (§3.1).
      es.interval_open = t;
      es.fulfilled = false;
      ++result_.predictions_made;
    }
  }
}

ResourceState MetricAccumulator::live_part(ResourceState state,
                                           util::Seconds now) const {
  const auto T = config_->prediction_window;
  const auto C = config_->cache_horizon;
  const auto past = [now](util::Seconds when, util::Seconds window) {
    return when != kNever && now - when > window;
  };
  // last_access is read within C (update fraction) and within T (already
  // fresh); the CLI keeps T < C, library callers need not.
  if (past(state.last_access, std::max(C, T))) state.last_access = kNever;
  if (past(state.last_mention, T)) state.last_mention = kNever;
  // `fulfilled` is read only while its interval is open, and reset when
  // the next one opens.
  if (state.interval_open == kNever || past(state.interval_open, T)) {
    state.interval_open = kNever;
    state.fulfilled = false;
  }
  return state;
}

bool MetricAccumulator::piggy_dead(util::Seconds last,
                                   util::Seconds now) const {
  // Read only while it can still suppress: t - last < interval.
  return now - last >= config_->min_piggyback_interval;
}

void MetricAccumulator::export_state(EvalStateImage& image,
                                     util::Seconds now) const {
  const EvalResult partials[] = {image.counters, result_};
  image.counters = merge_results(partials);
  state_.for_each([&](std::uint64_t key, const ResourceState& value) {
    const auto live = live_part(value, now);
    if (live != ResourceState{}) image.resource_state.emplace_back(key, live);
  });
  last_piggy_.for_each([&](std::uint64_t key, util::Seconds value) {
    if (!piggy_dead(value, now)) image.last_piggy.emplace_back(key, value);
  });
  rpv_.for_each([&](std::uint64_t key, const core::RpvList& list) {
    if (!list.empty_at(util::TimePoint{now})) {
      image.rpv.emplace_back(key, list.entries());
    }
  });
}

void MetricAccumulator::import_state(
    const EvalStateImage& image,
    const std::function<bool(util::InternId source)>& owns,
    bool take_counters) {
  if (take_counters) result_ = image.counters;
  const auto owned = [&owns](std::uint64_t key) {
    return owns(static_cast<util::InternId>(key >> 32));
  };
  // The entry of the image's last request holds its time as last_access,
  // and no timestamp in the image is later: the shard that owns that
  // entry recovers the capture time.
  for (const auto& [key, value] : image.resource_state) {
    if (!owned(key)) continue;
    state_.touch(key) = value;
    latest_ = std::max(latest_, value.last_access);
  }
  for (const auto& [key, value] : image.last_piggy) {
    if (owned(key)) last_piggy_.touch(key) = value;
  }
  for (const auto& [key, entries] : image.rpv) {
    if (owned(key)) rpv_.touch(key, config_->rpv).restore_entries(entries);
  }
}

EvalResult merge_results(std::span<const EvalResult> partials) {
  EvalResult total;
  for (const auto& r : partials) {
    total.requests += r.requests;
    total.predicted_requests += r.predicted_requests;
    total.piggyback_messages += r.piggyback_messages;
    total.piggyback_elements += r.piggyback_elements;
    total.predictions_made += r.predictions_made;
    total.predictions_true += r.predictions_true;
    total.prev_occurrence_within_horizon += r.prev_occurrence_within_horizon;
    total.prev_occurrence_within_window += r.prev_occurrence_within_window;
    total.updated_by_piggyback += r.updated_by_piggyback;
  }
  return total;
}

void publish_eval_result(const EvalResult& result) {
  auto* metrics = obs::global_metrics();
  if (metrics == nullptr) return;
  metrics->counter("eval.requests").add(result.requests);
  metrics->counter("eval.predicted_requests").add(result.predicted_requests);
  metrics->counter("eval.piggyback_messages").add(result.piggyback_messages);
  metrics->counter("eval.piggyback_elements").add(result.piggyback_elements);
  metrics->counter("eval.predictions_made").add(result.predictions_made);
  metrics->counter("eval.predictions_true").add(result.predictions_true);
  metrics->counter("eval.prev_occurrence_within_horizon")
      .add(result.prev_occurrence_within_horizon);
  metrics->counter("eval.prev_occurrence_within_window")
      .add(result.prev_occurrence_within_window);
  metrics->counter("eval.updated_by_piggyback")
      .add(result.updated_by_piggyback);
}

}  // namespace detail

EvalResult PredictionEvaluator::run(const trace::Trace& trace,
                                    core::VolumeProvider& provider,
                                    const core::MetaOracle& meta) {
  trace::MaterializedTraceView view(trace);
  return run(view, provider, meta);
}

EvalResult PredictionEvaluator::run(trace::TraceView& view,
                                    core::VolumeProvider& provider,
                                    const core::MetaOracle& meta) {
  OBS_SPAN("prediction_eval.run");
  core::VolumeProvider* const providers[] = {&provider};
  detail::MetricAccumulator acc(config_);
  detail::replay(config_, view, providers, nullptr, {&acc, 1}, meta, 0,
                 view.request_count());
  detail::publish_eval_result(acc.result());
  return acc.result();
}

}  // namespace piggyweb::sim
