#include "persist/eval_state.h"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <utility>

#include "persist/state_access.h"
#include "util/expect.h"
#include "util/hash.h"

namespace piggyweb::persist {

namespace {

bool by_key(const std::pair<std::uint64_t, sim::detail::ResourceState>& a,
            const std::pair<std::uint64_t, sim::detail::ResourceState>& b) {
  return a.first < b.first;
}

template <typename Pairs>
void sort_unique_by_key(Pairs& pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  PW_ENSURE(std::adjacent_find(pairs.begin(), pairs.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first == b.first;
                               }) == pairs.end());
}

EvalConfigEcho shared_echo(std::string_view scheme,
                           const sim::EvalConfig& eval) {
  EvalConfigEcho echo;
  echo.scheme = std::string(scheme);
  echo.prediction_window = eval.prediction_window;
  echo.cache_horizon = eval.cache_horizon;
  echo.filter_max_elements = eval.filter.max_elements;
  echo.filter_min_access_count = eval.filter.min_access_count;
  echo.use_rpv = eval.use_rpv;
  echo.rpv_timeout = eval.rpv.timeout;
  echo.rpv_max_entries = eval.rpv.max_entries;
  echo.min_piggyback_interval = eval.min_piggyback_interval;
  return echo;
}

}  // namespace

std::uint64_t volume_set_fingerprint(const volume::ProbabilityVolumeSet& set) {
  std::vector<util::InternId> resource_of(set.volume_count());
  for (const auto& kv : set.volumes()) {
    const auto id = set.volume_id(kv.first);
    PW_ENSURE(id < resource_of.size());
    resource_of[id] = kv.first;
  }
  std::uint64_t hash = util::kFnvOffset;
  for (const auto resource : resource_of) {
    const auto& entries = *set.volume_of(resource);
    ByteWriter out;
    out.u32(resource);
    out.u64(entries.size());
    for (const auto& entry : entries) {
      out.u32(entry.resource);
      out.f64(entry.probability);
      out.f64(entry.effectiveness);
    }
    hash = util::fnv1a(out.bytes(), hash);
  }
  return hash;
}

EvalConfigEcho make_eval_config_echo(
    const sim::EvalConfig& eval,
    const volume::DirectoryVolumeConfig& directory) {
  auto echo = shared_echo("directory", eval);
  echo.directory_level = directory.level;
  echo.max_volume_elements = directory.max_volume_elements;
  echo.max_candidates = directory.max_candidates;
  echo.large_size_threshold = directory.large_size_threshold;
  return echo;
}

EvalConfigEcho make_eval_config_echo(const sim::EvalConfig& eval,
                                     const volume::ProbabilityVolumeSet& set) {
  auto echo = shared_echo("probability", eval);
  echo.volume_set = volume_set_fingerprint(set);
  return echo;
}

EvalSnapshot capture_eval_state(
    std::span<const volume::DirectoryVolumes* const> providers,
    std::span<const sim::detail::MetricAccumulator* const> accumulators,
    EvalConfigEcho config, std::uint64_t next_request,
    std::uint64_t total_requests, std::uint64_t fingerprint) {
  EvalSnapshot snapshot;
  const bool directory = config.scheme == "directory";
  snapshot.config = std::move(config);
  snapshot.next_request = next_request;
  snapshot.total_requests = total_requests;
  snapshot.fingerprint = fingerprint;

  for (const auto* provider : providers) {
    PW_EXPECT(provider != nullptr);
    auto images = StateAccess::export_directory_volumes(*provider);
    snapshot.volumes.insert(snapshot.volumes.end(),
                            std::make_move_iterator(images.begin()),
                            std::make_move_iterator(images.end()));
  }
  // Canonical order: sorted by (server, prefix). Each (server, prefix)
  // lives in exactly one shard, so the set — and with it the sorted
  // sequence — is the same at every shard count.
  std::sort(snapshot.volumes.begin(), snapshot.volumes.end(),
            [](const DirectoryVolumeImage& a, const DirectoryVolumeImage& b) {
              return std::tie(a.server, a.prefix) <
                     std::tie(b.server, b.prefix);
            });
  util::FlatMap<core::VolumeId, core::VolumeId> canonical_of;
  canonical_of.reserve(snapshot.volumes.size());
  for (std::size_t i = 0; i < snapshot.volumes.size(); ++i) {
    auto& image = snapshot.volumes[i];
    const auto canonical = static_cast<core::VolumeId>(i);
    PW_ENSURE(canonical_of.try_emplace(image.saved_id, canonical).second);
    image.saved_id = canonical;
  }

  // Capture time: the stopped run's last request time. Export keeps only
  // the state live then, and a rotation drops only state dead at an
  // earlier time, so the union is the same however each shard rotated:
  // the bytes stay the same at every thread count.
  util::Seconds now = sim::detail::kNever;
  for (const auto* accumulator : accumulators) {
    PW_EXPECT(accumulator != nullptr);
    now = std::max(now, accumulator->latest_time());
  }
  for (const auto* accumulator : accumulators) {
    accumulator->export_state(snapshot.metrics, now);
  }
  if (directory) {
    // Rewrite RPV state from the run's volume numbering to canonical
    // indices; every noted id names a volume the run discovered.
    for (auto& kv : snapshot.metrics.rpv) {
      for (auto& entry : kv.second) {
        const auto it = canonical_of.find(entry.volume);
        PW_ENSURE(it != canonical_of.end());
        entry.volume = it->second;
      }
    }
  }
  std::sort(snapshot.metrics.resource_state.begin(),
            snapshot.metrics.resource_state.end(), by_key);
  PW_ENSURE(std::adjacent_find(snapshot.metrics.resource_state.begin(),
                               snapshot.metrics.resource_state.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first == b.first;
                               }) == snapshot.metrics.resource_state.end());
  sort_unique_by_key(snapshot.metrics.last_piggy);
  sort_unique_by_key(snapshot.metrics.rpv);
  return snapshot;
}

std::string serialize_eval_snapshot(const EvalSnapshot& snapshot) {
  SnapshotWriter writer;
  {
    ByteWriter meta;
    meta.str(snapshot.config.scheme);
    meta.i64(snapshot.config.prediction_window);
    meta.i64(snapshot.config.cache_horizon);
    meta.u32(snapshot.config.filter_max_elements);
    meta.u32(snapshot.config.filter_min_access_count);
    meta.u8(snapshot.config.use_rpv ? 1 : 0);
    meta.i64(snapshot.config.rpv_timeout);
    meta.u64(snapshot.config.rpv_max_entries);
    meta.i64(snapshot.config.min_piggyback_interval);
    meta.i64(snapshot.config.directory_level);
    meta.u64(snapshot.config.max_volume_elements);
    meta.u64(snapshot.config.max_candidates);
    meta.u64(snapshot.config.large_size_threshold);
    meta.u64(snapshot.next_request);
    meta.u64(snapshot.total_requests);
    meta.u64(snapshot.fingerprint);
    writer.add_section("eval_meta", meta.take());
  }
  {
    ByteWriter volumes;
    serialize_directory_volume_images(snapshot.volumes, volumes);
    writer.add_section("eval_volumes", volumes.take());
  }
  if (snapshot.config.scheme == "probability") {
    ByteWriter volume_set;
    volume_set.u64(snapshot.config.volume_set);
    writer.add_section("eval_volume_set", volume_set.take());
  }
  {
    ByteWriter out;
    const auto& m = snapshot.metrics;
    out.u64(m.counters.requests);
    out.u64(m.counters.predicted_requests);
    out.u64(m.counters.piggyback_messages);
    out.u64(m.counters.piggyback_elements);
    out.u64(m.counters.predictions_made);
    out.u64(m.counters.predictions_true);
    out.u64(m.counters.prev_occurrence_within_horizon);
    out.u64(m.counters.prev_occurrence_within_window);
    out.u64(m.counters.updated_by_piggyback);
    out.u64(m.resource_state.size());
    for (const auto& [key, state] : m.resource_state) {
      out.u64(key);
      out.i64(state.last_access);
      out.i64(state.last_mention);
      out.i64(state.interval_open);
      out.u8(state.fulfilled ? 1 : 0);
    }
    out.u64(m.last_piggy.size());
    for (const auto& [key, when] : m.last_piggy) {
      out.u64(key);
      out.i64(when);
    }
    out.u64(m.rpv.size());
    for (const auto& [key, entries] : m.rpv) {
      out.u64(key);
      out.u64(entries.size());
      for (const auto& entry : entries) {
        out.u32(entry.volume);
        out.i64(entry.when.value);
      }
    }
    writer.add_section("eval_metrics", out.take());
  }
  return writer.finish();
}

std::optional<EvalSnapshot> parse_eval_snapshot(std::string_view file,
                                                std::string& error) {
  const auto reader = SnapshotReader::parse(file, error);
  if (!reader.has_value()) return std::nullopt;
  const auto* meta_section = reader->find("eval_meta");
  const auto* volumes_section = reader->find("eval_volumes");
  const auto* metrics_section = reader->find("eval_metrics");
  if (meta_section == nullptr || volumes_section == nullptr ||
      metrics_section == nullptr) {
    error = "missing eval snapshot section";
    return std::nullopt;
  }

  EvalSnapshot snapshot;
  {
    ByteReader in(meta_section->payload);
    snapshot.config.scheme = std::string(in.str());
    snapshot.config.prediction_window = in.i64();
    snapshot.config.cache_horizon = in.i64();
    snapshot.config.filter_max_elements = in.u32();
    snapshot.config.filter_min_access_count = in.u32();
    const auto use_rpv = in.u8();
    snapshot.config.rpv_timeout = in.i64();
    snapshot.config.rpv_max_entries = in.u64();
    snapshot.config.min_piggyback_interval = in.i64();
    const auto level = in.i64();
    snapshot.config.max_volume_elements = in.u64();
    snapshot.config.max_candidates = in.u64();
    snapshot.config.large_size_threshold = in.u64();
    snapshot.next_request = in.u64();
    snapshot.total_requests = in.u64();
    snapshot.fingerprint = in.u64();
    if (!in.ok() || !in.at_end()) {
      error = "malformed eval_meta section";
      return std::nullopt;
    }
    if (use_rpv > 1 || level < 0 || level > 64) {
      error = "eval_meta field out of range";
      return std::nullopt;
    }
    snapshot.config.use_rpv = use_rpv == 1;
    snapshot.config.directory_level = static_cast<int>(level);
  }
  if (snapshot.config.scheme != "directory" &&
      snapshot.config.scheme != "probability") {
    error = "unknown eval snapshot scheme";
    return std::nullopt;
  }
  if (snapshot.next_request > snapshot.total_requests) {
    error = "next_request beyond trace end";
    return std::nullopt;
  }
  const bool directory = snapshot.config.scheme == "directory";

  // The probability scheme's volume-set fingerprint has a section of its
  // own, so directory snapshots keep their layout; a probability snapshot
  // without one predates the fingerprint and cannot be checked.
  const auto* volume_set_section = reader->find("eval_volume_set");
  if (directory && volume_set_section != nullptr) {
    error = "directory snapshot carries a volume-set fingerprint";
    return std::nullopt;
  }
  if (!directory) {
    if (volume_set_section == nullptr) {
      error = "probability snapshot has no volume-set fingerprint (written "
              "by an older version); save it again";
      return std::nullopt;
    }
    ByteReader in(volume_set_section->payload);
    snapshot.config.volume_set = in.u64();
    if (!in.ok() || !in.at_end()) {
      error = "malformed eval_volume_set section";
      return std::nullopt;
    }
  }

  {
    ByteReader in(volumes_section->payload);
    if (!deserialize_directory_volume_images(in, snapshot.volumes, error)) {
      return std::nullopt;
    }
    if (!in.at_end()) {
      error = "trailing bytes in eval_volumes section";
      return std::nullopt;
    }
    if (!directory && !snapshot.volumes.empty()) {
      error = "probability snapshot carries directory volumes";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < snapshot.volumes.size(); ++i) {
      const auto& image = snapshot.volumes[i];
      if (image.saved_id != static_cast<core::VolumeId>(i)) {
        error = "non-canonical volume numbering";
        return std::nullopt;
      }
      if (i > 0) {
        const auto& prev = snapshot.volumes[i - 1];
        if (std::tie(prev.server, prev.prefix) >=
            std::tie(image.server, image.prefix)) {
          error = "volumes not in canonical (server, prefix) order";
          return std::nullopt;
        }
      }
      util::FlatMap<util::InternId, std::uint8_t> seen;
      std::size_t elements = 0;
      for (const auto& part : image.parts) {
        for (std::size_t j = 0; j < part.size(); ++j) {
          ++elements;
          if (!seen.try_emplace(part[j].resource).second) {
            error = "duplicate resource in directory volume";
            return std::nullopt;
          }
          // Import merges the partitions into one list by last access.
          if (j > 0 && part[j].last_access > part[j - 1].last_access) {
            error = "directory partition not in last-access order";
            return std::nullopt;
          }
        }
      }
      if (snapshot.config.max_volume_elements != 0 &&
          elements > snapshot.config.max_volume_elements) {
        error = "directory volume exceeds its element bound";
        return std::nullopt;
      }
    }
  }

  {
    // The accumulator subtracts every loaded timestamp from request times
    // (observe and export read them all), so a far-off one would overflow.
    // Within 2^61 seconds of the epoch no difference can.
    const auto in_range = [](util::Seconds t) {
      constexpr util::Seconds kLimit = util::Seconds{1} << 61;
      return t >= -kLimit && t <= kLimit;
    };
    ByteReader in(metrics_section->payload);
    auto& m = snapshot.metrics;
    m.counters.requests = in.u64();
    m.counters.predicted_requests = in.u64();
    m.counters.piggyback_messages = in.u64();
    m.counters.piggyback_elements = in.u64();
    m.counters.predictions_made = in.u64();
    m.counters.predictions_true = in.u64();
    m.counters.prev_occurrence_within_horizon = in.u64();
    m.counters.prev_occurrence_within_window = in.u64();
    m.counters.updated_by_piggyback = in.u64();

    const auto state_count = in.u64();
    if (!in.fits(state_count, 33)) {
      error = "metric state count overruns input";
      return std::nullopt;
    }
    m.resource_state.reserve(state_count);
    for (std::uint64_t i = 0; i < state_count; ++i) {
      const auto key = in.u64();
      sim::detail::ResourceState state;
      state.last_access = in.i64();
      state.last_mention = in.i64();
      state.interval_open = in.i64();
      const auto fulfilled = in.u8();
      if (fulfilled > 1) {
        error = "metric state bool out of range";
        return std::nullopt;
      }
      state.fulfilled = fulfilled == 1;
      if (!in_range(state.last_access) || !in_range(state.last_mention) ||
          !in_range(state.interval_open)) {
        error = "metric state timestamp out of range";
        return std::nullopt;
      }
      if (!m.resource_state.empty() && key <= m.resource_state.back().first) {
        error = "metric state keys not strictly ascending";
        return std::nullopt;
      }
      m.resource_state.emplace_back(key, state);
    }

    const auto piggy_count = in.u64();
    if (!in.fits(piggy_count, 16)) {
      error = "frequency state count overruns input";
      return std::nullopt;
    }
    m.last_piggy.reserve(piggy_count);
    for (std::uint64_t i = 0; i < piggy_count; ++i) {
      const auto key = in.u64();
      const auto when = in.i64();
      if (!in_range(when)) {
        error = "frequency state timestamp out of range";
        return std::nullopt;
      }
      if (!m.last_piggy.empty() && key <= m.last_piggy.back().first) {
        error = "frequency state keys not strictly ascending";
        return std::nullopt;
      }
      m.last_piggy.emplace_back(key, when);
    }

    const auto rpv_count = in.u64();
    if (!in.fits(rpv_count, 16)) {
      error = "rpv state count overruns input";
      return std::nullopt;
    }
    m.rpv.reserve(rpv_count);
    for (std::uint64_t i = 0; i < rpv_count; ++i) {
      const auto key = in.u64();
      if (!m.rpv.empty() && key <= m.rpv.back().first) {
        error = "rpv state keys not strictly ascending";
        return std::nullopt;
      }
      std::vector<core::RpvEntry> entries;
      if (!deserialize_rpv_entries(in, entries, error)) return std::nullopt;
      for (const auto& entry : entries) {
        if (directory && entry.volume >= snapshot.volumes.size()) {
          error = "rpv entry references unknown volume";
          return std::nullopt;
        }
        if (!in_range(entry.when.value)) {
          error = "rpv entry timestamp out of range";
          return std::nullopt;
        }
      }
      m.rpv.emplace_back(key, std::move(entries));
    }
    if (!in.ok() || !in.at_end()) {
      error = "malformed eval_metrics section";
      return std::nullopt;
    }
  }
  return snapshot;
}

EvalRestore::EvalRestore(const EvalSnapshot& snapshot)
    : snapshot_(&snapshot),
      directory_(snapshot.config.scheme == "directory"),
      run_id_of_(snapshot.volumes.size(), core::kNoVolume) {}

void EvalRestore::warm_provider(core::VolumeProvider& provider,
                                std::size_t shard, std::size_t shards) {
  if (!directory_) return;
  PW_EXPECT(shards > 0 && shard < shards);
  PW_EXPECT(!translated_.has_value());
  if (expected_providers_ == 0) expected_providers_ = shards;
  PW_EXPECT(expected_providers_ == shards);
  ++warmed_providers_;

  auto* target = dynamic_cast<volume::DirectoryVolumes*>(&provider);
  PW_ENSURE(target != nullptr);
  std::vector<const DirectoryVolumeImage*> picked;
  std::vector<std::size_t> canonical;
  for (std::size_t i = 0; i < snapshot_->volumes.size(); ++i) {
    const auto& image = snapshot_->volumes[i];
    // The rule shard_directory_volumes routes requests by, so each
    // restored volume lands in the shard that will serve its requests.
    if (sim::directory_shard(image.server, util::fnv1a(image.prefix),
                             shards) != shard) {
      continue;
    }
    picked.push_back(&image);
    canonical.push_back(i);
  }
  std::vector<core::VolumeId> assigned;
  std::string error;
  const bool imported =
      StateAccess::import_directory_volumes(*target, picked, assigned, error);
  PW_ENSURE(imported);  // the snapshot was structurally validated at parse
  PW_ENSURE(assigned.size() == canonical.size());
  for (std::size_t j = 0; j < canonical.size(); ++j) {
    run_id_of_[canonical[j]] = assigned[j];
  }
}

void EvalRestore::seed_accumulator(sim::detail::MetricAccumulator& accumulator,
                                   std::size_t shard, std::size_t shards) {
  PW_EXPECT(shards > 0 && shard < shards);
  if (directory_ && !translated_.has_value()) {
    // All provider shards are warm (run_range's hooks contract), so the
    // canonical -> run id map is complete.
    PW_EXPECT(expected_providers_ != 0 &&
              warmed_providers_ == expected_providers_);
    translated_ = snapshot_->metrics;
    for (auto& kv : translated_->rpv) {
      for (auto& entry : kv.second) {
        PW_ENSURE(entry.volume < run_id_of_.size());
        entry.volume = run_id_of_[entry.volume];
      }
    }
  }
  const auto& image = directory_ ? *translated_ : snapshot_->metrics;
  accumulator.import_state(
      image,
      [shard, shards](util::InternId source) {
        return sim::source_shard(source, shards) == shard;
      },
      /*take_counters=*/shard == 0);
}

sim::EvalResumeHooks EvalRestore::hooks() {
  sim::EvalResumeHooks hooks;
  hooks.warm_provider = [this](core::VolumeProvider& provider,
                               std::size_t shard, std::size_t shards) {
    warm_provider(provider, shard, shards);
  };
  hooks.seed_accumulator = [this](sim::detail::MetricAccumulator& accumulator,
                                  std::size_t shard, std::size_t shards) {
    seed_accumulator(accumulator, shard, shards);
  };
  return hooks;
}

}  // namespace piggyweb::persist
