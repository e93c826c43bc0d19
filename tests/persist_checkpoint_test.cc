// Whole-run checkpoint/resume equivalence: interrupt an evaluation run at
// an arbitrary request, snapshot, and prove the warm-started continuation
// produces an EvalResult bit-identical to the uninterrupted run — directory
// and probability schemes, saved and resumed at any thread count.
// Also covers the canonical-bytes guarantee (the snapshot does not depend
// on the saving run's thread count) and the engine node-state round trip.
#include "persist/eval_state.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "persist/engine_state.h"
#include "server/meta.h"
#include "sim/engine.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
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

// Serial directory-scheme baseline: the uninterrupted result.
sim::EvalResult serial_baseline(const sim::EvalConfig& config) {
  volume::DirectoryVolumes volumes(directory_config());
  volumes.bind_paths(workload().trace.paths());
  server::TraceMetaOracle meta(workload().trace);
  return sim::PredictionEvaluator(config).run(workload().trace, volumes, meta);
}

// Runs requests [0, mid) on `threads` shards and snapshots the stopped
// run. `dvc` is null for the probability scheme, which saves no volumes.
EvalSnapshot capture_run(const sim::EvalConfig& config,
                         const sim::ShardedProviderSpec& spec,
                         const volume::DirectoryVolumeConfig* dvc,
                         std::size_t mid, std::size_t threads) {
  const auto& trace = workload().trace;
  server::TraceMetaOracle meta(trace);
  std::optional<EvalSnapshot> captured;
  sim::EvalResumeHooks hooks;
  hooks.capture =
      [&](std::span<core::VolumeProvider* const> providers,
          std::span<sim::detail::MetricAccumulator* const> accumulators) {
        std::vector<const volume::DirectoryVolumes*> dirs;
        for (auto* provider : providers) {
          if (dvc == nullptr) break;
          auto* directory = dynamic_cast<volume::DirectoryVolumes*>(provider);
          ASSERT_NE(directory, nullptr);
          dirs.push_back(directory);
        }
        std::vector<const sim::detail::MetricAccumulator*> accs(
            accumulators.begin(), accumulators.end());
        captured = capture_eval_state(
            dirs, accs,
            make_eval_config_echo(dvc != nullptr ? "directory" : "probability",
                                  config, dvc),
            mid, trace.size(), trace_fingerprint(trace));
      };
  sim::ParallelEvalConfig par;
  par.threads = threads;
  trace::MaterializedTraceView view(trace);
  sim::ParallelEvaluator(config, par)
      .run_range(view, spec, meta, 0, mid, /*publish=*/false, &hooks);
  return std::move(captured).value();  // throws if capture never ran
}

EvalSnapshot capture_directory(const sim::EvalConfig& config, std::size_t mid,
                               std::size_t threads) {
  const auto dvc = directory_config();
  return capture_run(config,
                     sim::shard_directory_volumes(dvc, workload().trace),
                     &dvc, mid, threads);
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

TEST(CheckpointResume, ProbabilitySchemeRoundTrip) {
  sim::EvalConfig config;
  config.filter.max_elements = 10;
  const auto& trace = workload().trace;
  server::TraceMetaOracle meta(trace);

  // A small hand-built volume set shared by all runs (the tool rebuilds it
  // deterministically from the trace; the snapshot stores no volume data).
  volume::ProbabilityVolumeSet set;
  for (util::InternId r = 0; r < 20; ++r) {
    set.add_volume(r, {{(r + 1) % 20, 0.8, 0.5}, {(r + 7) % 20, 0.4, 0.2}});
  }

  volume::ProbabilityVolumes serial_provider(&set, 10);
  const auto baseline =
      sim::PredictionEvaluator(config).run(trace, serial_provider, meta);

  // Stop at mid on one thread, snapshot (no providers for the probability
  // scheme).
  const auto spec = sim::shard_probability_volumes(&set, 10);
  const auto snapshot =
      capture_run(config, spec, nullptr, trace.size() / 2, 1);
  const auto bytes = serialize_eval_snapshot(snapshot);
  std::string error;
  const auto parsed = parse_eval_snapshot(bytes, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->volumes.empty());
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
}

TEST(CheckpointResume, SaveLoadFileRoundTrip) {
  const auto config = eval_config();
  const auto snapshot =
      capture_directory(config, workload().trace.size() / 2, 1);
  const std::string path = "checkpoint_test_roundtrip.snap";
  std::string error;
  ASSERT_TRUE(save_eval_snapshot(path, snapshot, error)) << error;
  const auto loaded = load_eval_snapshot(path, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(serialize_eval_snapshot(*loaded),
            serialize_eval_snapshot(snapshot));
  std::remove(path.c_str());

  EXPECT_FALSE(load_eval_snapshot("missing_checkpoint.snap", error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

// Engine node state (caches + filter RPV tables) ----------------------------

sim::UniformTreeSpec tree_spec() {
  sim::UniformTreeSpec spec;
  spec.depth = 2;
  spec.fanout = 2;
  spec.leaf_cache.capacity_bytes = 512 * 1024;
  spec.root_cache.capacity_bytes = 2ULL * 1024 * 1024;
  spec.base_filter.max_elements = 16;
  return spec;
}

TEST(EngineState, RoundTripIsByteStable) {
  const auto topology = sim::uniform_tree_topology(tree_spec());
  sim::EngineConfig config;
  config.volumes.level = 1;

  sim::SimulationEngine engine(workload(), topology, config);
  engine.run();
  const auto bytes = serialize_engine_state(engine);

  sim::SimulationEngine restored(workload(), topology, config);
  std::string error;
  ASSERT_TRUE(restore_engine_state(restored, bytes, error)) << error;
  EXPECT_EQ(serialize_engine_state(restored), bytes);
}

TEST(EngineState, NodeCountMismatchIsRejected) {
  sim::EngineConfig config;
  sim::SimulationEngine engine(
      workload(), sim::uniform_tree_topology(tree_spec()), config);
  const auto bytes = serialize_engine_state(engine);

  auto wider = tree_spec();
  wider.fanout = 3;
  sim::SimulationEngine other(workload(),
                              sim::uniform_tree_topology(wider), config);
  std::string error;
  EXPECT_FALSE(restore_engine_state(other, bytes, error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace piggyweb::persist
