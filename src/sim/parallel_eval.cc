#include "sim/parallel_eval.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/pool_metrics.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/eval_core.h"
#include "trace/stream.h"
#include "util/expect.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace piggyweb::sim {

ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, util::StringTableView paths) {
  ShardedProviderSpec spec;
  spec.make = [config, paths](std::size_t shard, std::size_t shards) {
    auto shard_config = config;
    shard_config.id_offset = static_cast<core::VolumeId>(shard);
    shard_config.id_stride = static_cast<core::VolumeId>(shards);
    auto provider = std::make_unique<volume::DirectoryVolumes>(shard_config);
    provider->bind_paths(paths);
    return provider;
  };
  // Same (server, prefix) -> same shard, so each volume's state lives
  // wholly in one shard. A path's prefix hash never changes, so one
  // precomputed hash per distinct path replaces a directory_prefix scan +
  // string hash per request.
  auto prefix_hash = std::make_shared<std::vector<std::uint64_t>>();
  prefix_hash->reserve(paths.size());
  for (std::size_t id = 0; id < paths.size(); ++id) {
    prefix_hash->push_back(util::fnv1a(util::directory_prefix(
        paths.str(static_cast<util::InternId>(id)), config.level)));
  }
  spec.shard_of = [prefix_hash = std::move(prefix_hash)](
                      const trace::Request& request, std::size_t shards) {
    return directory_shard(request.server, (*prefix_hash)[request.path],
                           shards);
  };
  return spec;
}

ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, const trace::Trace& trace) {
  return shard_directory_volumes(config,
                                 util::StringTableView(trace.paths()));
}

ShardedProviderSpec shard_probability_volumes(
    const volume::ProbabilityVolumeSet* set, std::size_t max_candidates) {
  PW_EXPECT(set != nullptr);
  ShardedProviderSpec spec;
  spec.make = [set, max_candidates](std::size_t /*shard*/,
                                    std::size_t /*shards*/) {
    // Lookups into the shared immutable set are read-only, so every shard
    // may wrap the same table.
    return std::make_unique<volume::ProbabilityVolumes>(set, max_candidates);
  };
  spec.shard_of = [](const trace::Request& request, std::size_t shards) {
    return static_cast<std::size_t>(
        util::hash_id_pair(request.server, request.path) % shards);
  };
  return spec;
}

EvalResult ParallelEvaluator::run(const trace::Trace& trace,
                                  const ShardedProviderSpec& spec,
                                  const core::MetaOracle& meta,
                                  ParallelEvalStats* stats) {
  trace::MaterializedTraceView view(trace);
  return run(view, spec, meta, stats);
}

EvalResult ParallelEvaluator::run(trace::TraceView& view,
                                  const ShardedProviderSpec& spec,
                                  const core::MetaOracle& meta,
                                  ParallelEvalStats* stats) {
  return run_range(view, spec, meta, 0, view.request_count(),
                   /*publish=*/true, /*hooks=*/nullptr, stats);
}

EvalResult ParallelEvaluator::run_range(trace::TraceView& view,
                                        const ShardedProviderSpec& spec,
                                        const core::MetaOracle& meta,
                                        std::size_t begin, std::size_t end,
                                        bool publish,
                                        const EvalResumeHooks* hooks,
                                        ParallelEvalStats* stats) {
  OBS_SPAN("parallel_eval.run");
  PW_EXPECT(spec.make != nullptr);
  const std::size_t shards =
      par_.threads != 0 ? par_.threads : util::ThreadPool::hardware_threads();

  // One provider and one accumulator per shard, each with shard-local
  // state that persists across windows.
  std::vector<std::unique_ptr<core::VolumeProvider>> owned;
  std::vector<core::VolumeProvider*> providers;
  std::vector<detail::MetricAccumulator> accumulators;
  for (std::size_t s = 0; s < shards; ++s) {
    owned.push_back(spec.make(s, shards));
    PW_ENSURE(owned.back() != nullptr);
    providers.push_back(owned.back().get());
    accumulators.emplace_back(config_);
  }
  if (hooks != nullptr && hooks->warm_provider) {
    for (std::size_t s = 0; s < shards; ++s) {
      hooks->warm_provider(*providers[s], s, shards);
    }
  }
  if (hooks != nullptr && hooks->seed_accumulator) {
    for (std::size_t s = 0; s < shards; ++s) {
      hooks->seed_accumulator(accumulators[s], s, shards);
    }
  }

  detail::replay(config_, view, providers, spec.shard_of, accumulators, meta,
                 begin, end);

  if (hooks != nullptr && hooks->capture) {
    std::vector<detail::MetricAccumulator*> accumulator_ptrs;
    for (auto& acc : accumulators) accumulator_ptrs.push_back(&acc);
    hooks->capture(providers, accumulator_ptrs);
  }
  std::vector<EvalResult> partials;
  partials.reserve(shards);
  for (const auto& acc : accumulators) partials.push_back(acc.result());
  if (stats != nullptr) {
    stats->threads = shards;
    stats->volume_count = 0;
    for (const auto* provider : providers) {
      stats->volume_count += provider->volume_count();
    }
  }
  auto result = detail::merge_results(partials);
  if (publish) detail::publish_eval_result(result);
  if (auto* metrics = obs::global_metrics(); metrics != nullptr) {
    // A run shape, not a result: non-deterministic by definition.
    metrics->gauge("parallel_eval.threads", /*deterministic=*/false)
        .set_max(static_cast<double>(shards));
  }
  return result;
}

namespace detail {

void replay(const EvalConfig& config, trace::TraceView& view,
            std::span<core::VolumeProvider* const> providers,
            const std::function<std::size_t(const trace::Request& request,
                                            std::size_t shards)>&
                provider_shard,
            std::span<MetricAccumulator> accumulators,
            const core::MetaOracle& meta, std::size_t begin, std::size_t end) {
  const std::size_t shards = providers.size();
  PW_EXPECT(shards > 0 && accumulators.size() == shards);
  PW_EXPECT(shards == 1 || provider_shard != nullptr);
  PW_EXPECT(begin <= end && end <= view.request_count());
  PW_EXPECT(config.cache_horizon > config.prediction_window);

  // N shards run on an N-thread pool, one shard runs inline. Pool timing
  // metrics are scheduling-dependent, hence non-deterministic; null
  // registry -> null observer -> the pool's fast path.
  std::unique_ptr<obs::ThreadPoolMetrics> pool_metrics;
  std::unique_ptr<util::ThreadPool> pool;
  if (shards > 1) {
    pool_metrics =
        obs::make_pool_metrics(obs::global_metrics(), "parallel_eval.pool");
    pool = std::make_unique<util::ThreadPool>(shards, pool_metrics.get());
  }
  const auto for_each_shard = [&](const auto& fn) {
    if (pool != nullptr) {
      util::parallel_shards(*pool, shards, fn);
    } else {
      fn(std::size_t{0});
    }
  };

  // Stage-1 state per provider shard, reused across windows so the steady
  // state allocates nothing. Each filtered message's element ids go to
  // the shard's flat `ids` buffer; `messages` holds one span of it per
  // owned row.
  struct Message {
    core::VolumeId volume = core::kNoVolume;
    std::size_t first = 0, last = 0;  // [first, last) of ids
  };
  struct ProviderShard {
    std::vector<std::uint32_t> rows;  // owned window rows, in trace order
    core::PiggybackMessage message;
    std::vector<Message> messages;
    std::vector<util::InternId> ids;
  };
  // A stage-2 row: its window index and where stage 1 left its message.
  struct SourceRow {
    std::uint32_t row, provider, slot;
  };
  std::vector<ProviderShard> stage1(shards);
  std::vector<std::vector<SourceRow>> stage2(shards);
  const trace::PathTypeTable types(view.paths());
  const std::size_t window_rows = kEvalBatchRequests * shards;
  util::Seconds last_time = kNever;

  for (std::size_t base = begin; base < end; base += window_rows) {
    const auto stop = std::min(base + window_rows, end);
    // A subspan for materialized traces, a bounded decode off the mapped
    // columns for streaming ones. Workers only read it, so sharing it
    // across both stages is safe.
    const auto window = view.window(base, stop - base);
    // Incremental sortedness contract: each window in order, and ordered
    // against the previous window's tail.
    PW_EXPECT(window.empty() || window.front().time.value >= last_time);
    PW_EXPECT(std::is_sorted(window.begin(), window.end(),
                             [](const trace::Request& a,
                                const trace::Request& b) {
                               return a.time < b.time;
                             }));
    if (!window.empty()) last_time = window.back().time.value;

    // Bucket the rows once by provider shard and once by source shard.
    for (auto& shard : stage1) shard.rows.clear();
    for (auto& rows : stage2) rows.clear();
    for (std::size_t i = 0; i < window.size(); ++i) {
      const std::size_t p =
          shards == 1 ? 0 : provider_shard(window[i], shards);
      PW_EXPECT(p < shards);
      auto& owner = stage1[p].rows;
      stage2[source_shard(window[i].source, shards)].push_back(
          {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(p),
           static_cast<std::uint32_t>(owner.size())});
      owner.push_back(static_cast<std::uint32_t>(i));
    }

    // Stage 1: each shard's provider observes its requests and filters
    // them with the static filter, one request at a time, stopping at a
    // full message. Within a shard, requests are visited in trace order,
    // so per-volume state evolves exactly as in a one-shard run.
    for_each_shard([&](std::size_t s) {
      OBS_SPAN("parallel_eval.provider_shard");
      auto& shard = stage1[s];
      shard.messages.clear();
      shard.ids.clear();
      for (const auto row : shard.rows) {
        providers[s]->on_request_filtered(
            make_volume_request(window[row], types.type_of(window[row].path)),
            config.filter, meta, shard.message);
        const auto first = shard.ids.size();
        for (const auto& element : shard.message.elements) {
          shard.ids.push_back(element.resource);
        }
        shard.messages.push_back(
            {shard.message.volume, first, shard.ids.size()});
      }
    });

    // Stage 2: each source shard's rows, in trace order, through its
    // accumulator.
    for_each_shard([&](std::size_t s) {
      OBS_SPAN("parallel_eval.metric_shard");
      auto& acc = accumulators[s];
      for (const auto& [row, provider, slot] : stage2[s]) {
        const auto& shard = stage1[provider];
        const auto& message = shard.messages[slot];
        acc.observe(window[row], message.volume,
                    std::span<const util::InternId>(shard.ids)
                        .subspan(message.first, message.last - message.first));
      }
    });

    if (config.on_progress) {
      config.on_progress({stop - begin, end - begin,
                          pool != nullptr ? pool->queue_depth() : 0});
    }
  }
}

}  // namespace detail

}  // namespace piggyweb::sim
