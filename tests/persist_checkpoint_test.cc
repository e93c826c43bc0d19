// Whole-run checkpoint/resume equivalence: interrupt an evaluation run at
// an arbitrary request, snapshot, and prove the warm-started continuation
// produces an EvalResult bit-identical to the uninterrupted run — directory
// and probability schemes, saved and resumed at any thread count.
// Also covers the canonical-bytes guarantee (the snapshot does not depend
// on the saving run's thread count), the probability scheme's volume-set
// fingerprint, and the file round trip the tool uses.
#include "persist/eval_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "persist/codec.h"
#include "server/meta.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
#include "trace/binary.h"
#include "trace/profiles.h"
#include "trace/stream.h"
#include "volume/directory.h"
#include "volume/probability.h"

namespace piggyweb::persist {
namespace {

const trace::SyntheticWorkload& workload() {
  static const trace::SyntheticWorkload w =
      trace::generate(trace::aiusa_profile(0.03));
  return w;
}

sim::EvalConfig eval_config() {
  sim::EvalConfig config;
  config.filter.max_elements = 20;
  config.filter.min_access_count = 2;
  config.use_rpv = true;
  config.rpv.timeout = 30;
  config.min_piggyback_interval = 15;
  return config;
}

volume::DirectoryVolumeConfig directory_config() {
  volume::DirectoryVolumeConfig config;
  config.level = 1;
  return config;
}

void expect_identical(const sim::EvalResult& a, const sim::EvalResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.predicted_requests, b.predicted_requests);
  EXPECT_EQ(a.piggyback_messages, b.piggyback_messages);
  EXPECT_EQ(a.piggyback_elements, b.piggyback_elements);
  EXPECT_EQ(a.predictions_made, b.predictions_made);
  EXPECT_EQ(a.predictions_true, b.predictions_true);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
}

// Twenty two-entry probability volumes over resources 0..19.
volume::ProbabilityVolumeSet small_volume_set() {
  volume::ProbabilityVolumeSet set;
  for (util::InternId r = 0; r < 20; ++r) {
    set.add_volume(r, {{(r + 1) % 20, 0.8, 0.5}, {(r + 7) % 20, 0.4, 0.2}});
  }
  return set;
}

// Serial directory-scheme baseline: the uninterrupted result.
sim::EvalResult serial_baseline(const sim::EvalConfig& config) {
  volume::DirectoryVolumes volumes(directory_config());
  volumes.bind_paths(workload().trace.paths());
  server::TraceMetaOracle meta(workload().trace);
  return sim::PredictionEvaluator(config).run(workload().trace, volumes, meta);
}

// Runs requests [0, mid) on `threads` shards, or [next_request, mid)
// resumed from `resume`, and snapshots the stopped run under `echo`. Only
// the directory scheme saves volumes.
EvalSnapshot capture_run(const sim::EvalConfig& config,
                         const sim::ShardedProviderSpec& spec,
                         const EvalConfigEcho& echo, std::size_t mid,
                         std::size_t threads,
                         const EvalSnapshot* resume = nullptr) {
  const auto& trace = workload().trace;
  server::TraceMetaOracle meta(trace);
  std::optional<EvalSnapshot> captured;
  std::optional<EvalRestore> restore;
  sim::EvalResumeHooks hooks;
  if (resume != nullptr) hooks = restore.emplace(*resume).hooks();
  hooks.capture =
      [&](std::span<core::VolumeProvider* const> providers,
          std::span<sim::detail::MetricAccumulator* const> accumulators) {
        std::vector<const volume::DirectoryVolumes*> dirs;
        for (auto* provider : providers) {
          if (echo.scheme != "directory") break;
          auto* directory = dynamic_cast<volume::DirectoryVolumes*>(provider);
          ASSERT_NE(directory, nullptr);
          dirs.push_back(directory);
        }
        std::vector<const sim::detail::MetricAccumulator*> accs(
            accumulators.begin(), accumulators.end());
        captured = capture_eval_state(dirs, accs, echo, mid, trace.size(),
                                      trace::trace_content_fingerprint(trace));
      };
  sim::ParallelEvalConfig par;
  par.threads = threads;
  trace::MaterializedTraceView view(trace);
  const std::size_t begin = restore ? restore->next_request() : 0;
  sim::ParallelEvaluator(config, par)
      .run_range(view, spec, meta, begin, mid, /*publish=*/false, &hooks);
  return std::move(captured).value();  // throws if capture never ran
}

EvalSnapshot capture_directory(const sim::EvalConfig& config, std::size_t mid,
                               std::size_t threads,
                               const EvalSnapshot* resume = nullptr) {
  const auto dvc = directory_config();
  return capture_run(config,
                     sim::shard_directory_volumes(dvc, workload().trace),
                     make_eval_config_echo(config, dvc), mid, threads,
                     resume);
}

// Warm-starts `snapshot` through EvalRestore::hooks() on `threads` shards
// and finishes the run.
sim::EvalResult resume_run(const sim::EvalConfig& config,
                           const sim::ShardedProviderSpec& spec,
                           const EvalSnapshot& snapshot, std::size_t threads) {
  const auto& trace = workload().trace;
  server::TraceMetaOracle meta(trace);
  EvalRestore restore(snapshot);
  const auto hooks = restore.hooks();
  sim::ParallelEvalConfig par;
  par.threads = threads;
  trace::MaterializedTraceView view(trace);
  return sim::ParallelEvaluator(config, par)
      .run_range(view, spec, meta, restore.next_request(), trace.size(),
                 /*publish=*/false, &hooks);
}

TEST(CheckpointResume, SerialDirectoryMatchesUninterrupted) {
  const auto config = eval_config();
  const auto& trace = workload().trace;
  ASSERT_GT(trace.size(), 400u);
  const auto baseline = serial_baseline(config);
  const auto spec = sim::shard_directory_volumes(directory_config(), trace);

  for (const std::size_t mid :
       {trace.size() / 7, trace.size() / 2, trace.size() - 1}) {
    const auto snapshot = capture_directory(config, mid, 1);

    // The container round trips exactly: serialize -> parse -> serialize
    // is a byte identity.
    const auto bytes = serialize_eval_snapshot(snapshot);
    std::string error;
    const auto parsed = parse_eval_snapshot(bytes, error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(serialize_eval_snapshot(*parsed), bytes);
    EXPECT_EQ(parsed->next_request, mid);

    // Warm-start a fresh one-thread run and finish it.
    expect_identical(baseline, resume_run(config, spec, *parsed, 1));
  }
}

TEST(CheckpointResume, SnapshotBytesAreThreadCountInvariant) {
  const auto config = eval_config();
  const auto mid = workload().trace.size() / 2;
  const auto one_thread =
      serialize_eval_snapshot(capture_directory(config, mid, 1));
  for (const std::size_t threads : {2u, 3u}) {
    EXPECT_EQ(serialize_eval_snapshot(capture_directory(config, mid, threads)),
              one_thread)
        << threads << " threads";
  }
}

TEST(CheckpointResume, CrossThreadCountResumeMatchesUninterrupted) {
  const auto config = eval_config();
  const auto& trace = workload().trace;
  const auto baseline = serial_baseline(config);

  // Save under one thread count, resume under others (including one).
  const auto snapshot = capture_directory(config, trace.size() / 3, 2);
  const auto spec = sim::shard_directory_volumes(directory_config(), trace);
  for (const std::size_t threads : {1u, 4u}) {
    expect_identical(baseline, resume_run(config, spec, snapshot, threads));
  }
}

// A snapshot keeps only the state live at its capture time. One written
// before that rule also holds dead entries, and stale fields in live ones;
// it must still resume to the uninterrupted result, and a later capture
// of the resumed run must not show them.
TEST(CheckpointResume, SnapshotWithDeadStateResumesExactly) {
  const auto config = eval_config();
  const auto& trace = workload().trace;
  const auto T = config.prediction_window;
  const auto C = config.cache_horizon;
  const auto baseline = serial_baseline(config);
  const auto mid = trace.size() / 2;
  const auto current = capture_directory(config, mid, 1);
  const auto now = trace.requests()[mid - 1].time.value;
  ASSERT_FALSE(current.volumes.empty());

  // Dead entries keyed by pairs the rest of the trace touches, so the
  // resumed run reads them, with the timestamps an older run kept.
  std::set<std::uint64_t> resource_keys;
  std::set<std::uint64_t> server_keys;
  for (std::size_t i = mid; i < std::min(trace.size(), mid + 3000); ++i) {
    const auto& req = trace.requests()[i];
    resource_keys.insert(sim::detail::pair_key(req.source, req.path));
    server_keys.insert(sim::detail::pair_key(req.source, req.server));
  }
  const auto has_key = [](const auto& pairs, std::uint64_t key) {
    const auto it = std::lower_bound(
        pairs.begin(), pairs.end(), key,
        [](const auto& pair, std::uint64_t k) { return pair.first < k; });
    return it != pairs.end() && it->first == key;
  };
  auto older = current;
  auto& m = older.metrics;
  // Stale fields in live entries: a mention and an interval past T.
  std::size_t stale = 0;
  for (auto& [key, state] : m.resource_state) {
    if (state.last_mention == sim::detail::kNever) {
      state.last_mention = now - T - 3;
      state.interval_open = now - T - 3;
      state.fulfilled = true;
      ++stale;
    }
  }
  ASSERT_GT(stale, 0u);
  sim::detail::ResourceState dead;
  dead.last_access = now - C - 1;
  dead.last_mention = now - T - 1;
  dead.interval_open = now - T - 1;
  dead.fulfilled = true;
  for (const auto key : resource_keys) {
    if (!has_key(current.metrics.resource_state, key)) {
      m.resource_state.emplace_back(key, dead);
    }
  }
  const std::vector<core::RpvEntry> expired{
      {0, util::TimePoint{now - config.rpv.timeout - 5}},
      {1, util::TimePoint{now - config.rpv.timeout - 1}}};
  for (const auto key : server_keys) {
    if (!has_key(current.metrics.last_piggy, key)) {
      m.last_piggy.emplace_back(key, now - config.min_piggyback_interval);
    }
    if (!has_key(current.metrics.rpv, key)) m.rpv.emplace_back(key, expired);
  }
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(m.resource_state.begin(), m.resource_state.end(), by_key);
  std::sort(m.last_piggy.begin(), m.last_piggy.end(), by_key);
  std::sort(m.rpv.begin(), m.rpv.end(), by_key);
  ASSERT_GT(m.resource_state.size(), current.metrics.resource_state.size());
  ASSERT_GT(m.last_piggy.size(), current.metrics.last_piggy.size());
  ASSERT_GT(m.rpv.size(), current.metrics.rpv.size());

  std::string error;
  const auto parsed = parse_eval_snapshot(serialize_eval_snapshot(older), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto spec = sim::shard_directory_volumes(directory_config(), trace);
  const auto later = mid + (trace.size() - mid) / 3;
  const auto uninterrupted =
      serialize_eval_snapshot(capture_directory(config, later, 1));
  const auto at_mid = serialize_eval_snapshot(current);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    expect_identical(baseline, resume_run(config, spec, *parsed, threads));
    EXPECT_EQ(serialize_eval_snapshot(
                  capture_directory(config, later, threads, &*parsed)),
              uninterrupted);
    // Captured again before any request: the capture time comes back
    // from the loaded state.
    EXPECT_EQ(serialize_eval_snapshot(
                  capture_directory(config, mid, threads, &*parsed)),
              at_mid);
  }
}

TEST(CheckpointResume, ProbabilitySchemeRoundTrip) {
  sim::EvalConfig config;
  config.filter.max_elements = 10;
  const auto& trace = workload().trace;
  server::TraceMetaOracle meta(trace);

  // A small hand-built volume set shared by all runs (the tool rebuilds it
  // at load; the snapshot stores only its fingerprint).
  const auto set = small_volume_set();

  volume::ProbabilityVolumes serial_provider(&set, 10);
  const auto baseline =
      sim::PredictionEvaluator(config).run(trace, serial_provider, meta);

  // Stop at mid on one thread, snapshot (no providers for the probability
  // scheme).
  const auto spec = sim::shard_probability_volumes(&set, 10);
  const auto snapshot = capture_run(
      config, spec, make_eval_config_echo(config, set), trace.size() / 2, 1);
  const auto bytes = serialize_eval_snapshot(snapshot);
  std::string error;
  const auto parsed = parse_eval_snapshot(bytes, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->volumes.empty());
  EXPECT_EQ(parsed->config.volume_set, volume_set_fingerprint(set));
  EXPECT_EQ(serialize_eval_snapshot(*parsed), bytes);

  // Resume on two threads against the same set.
  expect_identical(baseline, resume_run(config, spec, *parsed, 2));
}

TEST(CheckpointResume, StructurallyInvalidSnapshotsAreRejected) {
  const auto config = eval_config();
  const auto mid = workload().trace.size() / 2;
  auto snapshot = capture_directory(config, mid, 1);

  std::string error;
  auto broken = snapshot;
  broken.next_request = broken.total_requests + 1;
  EXPECT_FALSE(
      parse_eval_snapshot(serialize_eval_snapshot(broken), error).has_value());

  broken = snapshot;
  broken.config.scheme = "bogus";
  EXPECT_FALSE(
      parse_eval_snapshot(serialize_eval_snapshot(broken), error).has_value());

  // The probability scheme must not carry volume images.
  broken = snapshot;
  broken.config.scheme = "probability";
  EXPECT_FALSE(
      parse_eval_snapshot(serialize_eval_snapshot(broken), error).has_value());

  // Non-canonical volume numbering is rejected.
  broken = snapshot;
  if (broken.volumes.size() >= 2) {
    std::swap(broken.volumes.front(), broken.volumes.back());
    EXPECT_FALSE(parse_eval_snapshot(serialize_eval_snapshot(broken), error)
                     .has_value());
  }

  // So is a partition list out of last-access order: restore merges the
  // six lists of a volume by last access.
  broken = snapshot;
  bool swapped = false;
  for (auto& image : broken.volumes) {
    for (auto& part : image.parts) {
      for (std::size_t j = 1; j < part.size() && !swapped; ++j) {
        if (part[j - 1].last_access > part[j].last_access) {
          std::swap(part[j - 1], part[j]);
          swapped = true;
        }
      }
    }
  }
  ASSERT_TRUE(swapped);
  EXPECT_FALSE(
      parse_eval_snapshot(serialize_eval_snapshot(broken), error).has_value());
  EXPECT_NE(error.find("directory partition not in last-access order"),
            std::string::npos)
      << error;

  // So is a timestamp no trace reaches: the accumulator would overflow
  // subtracting it from a request time.
  const util::Seconds far = -(util::Seconds{1} << 62);
  ASSERT_FALSE(snapshot.metrics.resource_state.empty());
  ASSERT_FALSE(snapshot.metrics.last_piggy.empty());
  ASSERT_FALSE(snapshot.metrics.rpv.empty());
  for (int field = 0; field < 5; ++field) {
    broken = snapshot;
    auto& m = broken.metrics;
    auto& state = m.resource_state.front().second;
    if (field == 0) state.last_access = far;
    if (field == 1) state.last_mention = far;
    if (field == 2) state.interval_open = far;
    if (field == 3) m.last_piggy.front().second = far;
    if (field == 4) m.rpv.front().second.front().when = util::TimePoint{far};
    EXPECT_FALSE(parse_eval_snapshot(serialize_eval_snapshot(broken), error)
                     .has_value())
        << field;
    EXPECT_NE(error.find("timestamp out of range"), std::string::npos)
        << error;
  }
}

TEST(CheckpointResume, ProbabilityEchoPinsTheVolumeSet) {
  const sim::EvalConfig config{};
  const auto set = small_volume_set();
  EXPECT_EQ(make_eval_config_echo(config, small_volume_set()),
            make_eval_config_echo(config, set));

  // One entry's probability changed, as in another --volumes file.
  auto other = small_volume_set();
  other.add_volume(4, {{5, 0.8, 0.5}, {11, 0.41, 0.2}});
  EXPECT_FALSE(make_eval_config_echo(config, other) ==
               make_eval_config_echo(config, set));

  // The same volumes under other ids: RPV state names volumes by id.
  volume::ProbabilityVolumeSet reordered;
  for (util::InternId r = 20; r-- > 0;) {
    reordered.add_volume(r, *set.volume_of(r));
  }
  EXPECT_NE(volume_set_fingerprint(reordered), volume_set_fingerprint(set));

  // The directory scheme has no volume set to pin.
  EXPECT_EQ(make_eval_config_echo(config, directory_config()).volume_set, 0u);
}

TEST(CheckpointResume, ProbabilitySnapshotWithoutFingerprintIsRejected) {
  sim::EvalConfig config;
  config.filter.max_elements = 10;
  const auto set = small_volume_set();
  const auto bytes = serialize_eval_snapshot(
      capture_run(config, sim::shard_probability_volumes(&set, 10),
                  make_eval_config_echo(config, set),
                  workload().trace.size() / 2, 1));

  // Rewrite the container without its eval_volume_set section, as a
  // version that predates the fingerprint wrote it.
  std::string error;
  const auto reader = SnapshotReader::parse(bytes, error);
  ASSERT_TRUE(reader.has_value()) << error;
  SnapshotWriter older;
  for (const auto& section : reader->sections()) {
    if (section.name != "eval_volume_set") {
      older.add_section(section.name, std::string(section.payload));
    }
  }
  ASSERT_EQ(older.section_count() + 1, reader->sections().size());
  EXPECT_FALSE(parse_eval_snapshot(older.finish(), error).has_value());
  EXPECT_NE(error.find("no volume-set fingerprint"), std::string::npos)
      << error;

  // A directory snapshot keeps the three-section layout and must not
  // carry the probability section.
  const auto directory =
      serialize_eval_snapshot(capture_directory(eval_config(), 100, 1));
  const auto directory_reader = SnapshotReader::parse(directory, error);
  ASSERT_TRUE(directory_reader.has_value()) << error;
  EXPECT_EQ(directory_reader->sections().size(), 3u);
  SnapshotWriter mixed;
  for (const auto& section : directory_reader->sections()) {
    mixed.add_section(section.name, std::string(section.payload));
  }
  mixed.add_section("eval_volume_set", std::string(8, '\0'));
  EXPECT_FALSE(parse_eval_snapshot(mixed.finish(), error).has_value());
}

// The tool's file path: write_file_bytes, read_file_bytes, then parse.
TEST(CheckpointResume, SaveLoadFileRoundTrip) {
  const auto config = eval_config();
  const auto bytes = serialize_eval_snapshot(
      capture_directory(config, workload().trace.size() / 2, 1));
  const std::string path = "checkpoint_test_roundtrip.snap";
  std::string error;
  ASSERT_TRUE(write_file_bytes(path, bytes, error)) << error;
  const auto read = read_file_bytes(path, error);
  std::remove(path.c_str());
  ASSERT_TRUE(read.has_value()) << error;
  EXPECT_EQ(*read, bytes);
  const auto loaded = parse_eval_snapshot(*read, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(serialize_eval_snapshot(*loaded), bytes);

  EXPECT_FALSE(read_file_bytes("missing_checkpoint.snap", error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace piggyweb::persist
