// Determinism property tests for the sharded evaluation engine: for every
// synthetic log profile and a spread of filter configurations,
// ParallelEvaluator at 1/2/3/4/8 threads must produce an EvalResult that
// is byte-identical to the one-shard PredictionEvaluator, and the rendered
// metric report must match character for character. Also pins the
// progress heartbeat's contract. Runs under the tsan ctest label
// (-DPIGGYWEB_SANITIZE=thread + `ctest -L tsan`).
#include "sim/parallel_eval.h"

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "server/meta.h"
#include "sim/eval_core.h"
#include "sim/prediction_eval.h"
#include "sim/report.h"
#include "trace/profiles.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggyweb {
namespace {

// Every profile the synthetic generator knows, at scales small enough to
// keep the whole suite within seconds.
std::vector<trace::LogProfile> tiny_profiles() {
  return {trace::aiusa_profile(0.03),      trace::apache_profile(0.002),
          trace::sun_profile(0.0005),     trace::marimba_profile(0.025),
          trace::att_client_profile(0.005),
          trace::digital_client_profile(0.002)};
}

void expect_identical(const sim::EvalResult& serial,
                      const sim::EvalResult& parallel,
                      const std::string& label) {
  // Field comparisons first for readable failures...
  EXPECT_EQ(serial.requests, parallel.requests) << label;
  EXPECT_EQ(serial.predicted_requests, parallel.predicted_requests) << label;
  EXPECT_EQ(serial.piggyback_messages, parallel.piggyback_messages) << label;
  EXPECT_EQ(serial.piggyback_elements, parallel.piggyback_elements) << label;
  EXPECT_EQ(serial.predictions_made, parallel.predictions_made) << label;
  EXPECT_EQ(serial.predictions_true, parallel.predictions_true) << label;
  EXPECT_EQ(serial.prev_occurrence_within_horizon,
            parallel.prev_occurrence_within_horizon)
      << label;
  EXPECT_EQ(serial.prev_occurrence_within_window,
            parallel.prev_occurrence_within_window)
      << label;
  EXPECT_EQ(serial.updated_by_piggyback, parallel.updated_by_piggyback)
      << label;
  // ...then the headline guarantee: byte identity and identical reports.
  static_assert(std::is_trivially_copyable_v<sim::EvalResult>);
  EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof serial), 0) << label;
  EXPECT_EQ(sim::render_eval_report(serial),
            sim::render_eval_report(parallel))
      << label;
}

// The paper's §3.2 configuration with every dynamic control turned on:
// RPV suppression, frequency control, and an access filter.
sim::EvalConfig full_controls_config() {
  sim::EvalConfig config;
  config.filter.max_elements = 20;
  config.filter.min_access_count = 3;
  config.use_rpv = true;
  config.rpv.timeout = 30;
  config.min_piggyback_interval = 15;
  return config;
}

// Heavy access filter + longer window, no RPV (the other §3.2.2 corner).
sim::EvalConfig access_filter_config() {
  sim::EvalConfig config;
  config.prediction_window = 900;
  config.filter.max_elements = 8;
  config.filter.min_access_count = 10;
  return config;
}

sim::EvalResult run_serial_directory(const trace::SyntheticWorkload& w,
                                     const sim::EvalConfig& config,
                                     int level) {
  volume::DirectoryVolumeConfig dvc;
  dvc.level = level;
  volume::DirectoryVolumes volumes(dvc);
  volumes.bind_paths(w.trace.paths());
  server::TraceMetaOracle meta(w.trace);
  return sim::PredictionEvaluator(config).run(w.trace, volumes, meta);
}

sim::EvalResult run_parallel_directory(const trace::SyntheticWorkload& w,
                                       const sim::EvalConfig& config,
                                       int level,
                                       const sim::ParallelEvalConfig& par,
                                       sim::ParallelEvalStats* stats =
                                           nullptr) {
  volume::DirectoryVolumeConfig dvc;
  dvc.level = level;
  const auto spec = sim::shard_directory_volumes(dvc, w.trace);
  server::TraceMetaOracle meta(w.trace);
  return sim::ParallelEvaluator(config, par).run(w.trace, spec, meta, stats);
}

TEST(ParallelEvalDeterminism, DirectoryAllProfilesAllThreadCounts) {
  const auto config = full_controls_config();
  for (const auto& profile : tiny_profiles()) {
    const auto workload = trace::generate(profile);
    ASSERT_GT(workload.trace.size(), 100u) << profile.name;
    const auto serial = run_serial_directory(workload, config, 1);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      sim::ParallelEvalConfig par;
      par.threads = threads;
      const auto parallel =
          run_parallel_directory(workload, config, 1, par);
      expect_identical(serial, parallel,
                       profile.name + " threads=" +
                           std::to_string(threads));
    }
  }
}

TEST(ParallelEvalDeterminism, DirectoryAccessFilterConfig) {
  const auto config = access_filter_config();
  for (const auto& profile :
       {trace::aiusa_profile(0.03), trace::sun_profile(0.0005)}) {
    const auto workload = trace::generate(profile);
    for (const int level : {0, 2}) {
      const auto serial = run_serial_directory(workload, config, level);
      for (const std::size_t threads : {2u, 8u}) {
        sim::ParallelEvalConfig par;
        par.threads = threads;
        const auto parallel =
            run_parallel_directory(workload, config, level, par);
        expect_identical(serial, parallel,
                         profile.name + " level=" + std::to_string(level) +
                             " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ParallelEvalDeterminism, MultiWindowTrace) {
  // ~208 k requests: at least four replay windows at 2 and 3 threads, and
  // 13 one-thread windows, so per-shard provider and accumulator state
  // carries across many window boundaries.
  const auto config = full_controls_config();
  const auto workload = trace::generate(trace::sun_profile(0.016));
  ASSERT_GE(workload.trace.size(), 4 * 3 * sim::detail::kEvalBatchRequests);
  const auto serial = run_serial_directory(workload, config, 1);
  for (const std::size_t threads : {2u, 3u}) {
    sim::ParallelEvalConfig par;
    par.threads = threads;
    expect_identical(serial, run_parallel_directory(workload, config, 1, par),
                     "multi-window threads=" + std::to_string(threads));
  }
}

TEST(EvalProgress, HeartbeatIsMonotoneAndObservational) {
  const auto workload = trace::generate(trace::sun_profile(0.016));
  ASSERT_GE(workload.trace.size(), 3 * 4 * sim::detail::kEvalBatchRequests);
  const auto quiet = full_controls_config();
  for (const std::size_t threads : {1u, 4u}) {
    sim::ParallelEvalConfig par;
    par.threads = threads;
    std::vector<sim::EvalProgress> calls;
    auto config = quiet;
    config.on_progress = [&calls](const sim::EvalProgress& p) {
      calls.push_back(p);
    };
    const auto label = "threads=" + std::to_string(threads);
    expect_identical(run_parallel_directory(workload, quiet, 1, par),
                     run_parallel_directory(workload, config, 1, par), label);
    ASSERT_GE(calls.size(), 3u) << label;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].total, workload.trace.size()) << label;
      if (i > 0) {
        EXPECT_GT(calls[i].done, calls[i - 1].done) << label;
      }
      if (threads == 1) {
        EXPECT_EQ(calls[i].queue_depth, 0u) << label;
      }
    }
    EXPECT_EQ(calls.back().done, calls.back().total) << label;
  }
}

TEST(ParallelEvalDeterminism, StatsReportShardingAndVolumeTotals) {
  const auto workload = trace::generate(trace::marimba_profile(0.025));
  const sim::EvalConfig config;  // defaults: static filter only

  volume::DirectoryVolumeConfig dvc;
  volume::DirectoryVolumes serial_volumes(dvc);
  serial_volumes.bind_paths(workload.trace.paths());
  server::TraceMetaOracle meta(workload.trace);
  const auto serial =
      sim::PredictionEvaluator(config).run(workload.trace, serial_volumes,
                                           meta);

  sim::ParallelEvalConfig par;
  par.threads = 4;
  sim::ParallelEvalStats stats;
  const auto parallel =
      run_parallel_directory(workload, config, dvc.level, par, &stats);
  expect_identical(serial, parallel, "stats run");
  EXPECT_EQ(stats.threads, 4u);
  // Sharded providers partition the same volume key space.
  EXPECT_EQ(stats.volume_count, serial_volumes.volume_count());
}

TEST(ParallelEvalDeterminism, ProbabilityVolumesAllThreadCounts) {
  for (const auto& profile :
       {trace::aiusa_profile(0.03), trace::sun_profile(0.0005)}) {
    const auto workload = trace::generate(profile);
    volume::PairCounterConfig pcc;
    const auto counts =
        volume::PairCounterBuilder(pcc).build(workload.trace, 5);
    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = 0.2;
    pvc.effectiveness_threshold = 0.1;
    const auto set =
        volume::build_probability_volumes(workload.trace, counts, pvc);

    auto config = full_controls_config();
    config.filter.min_access_count = 0;  // exercised by directory tests

    server::TraceMetaOracle meta(workload.trace);
    volume::ProbabilityVolumes provider(&set, pvc.max_candidates);
    const auto serial = sim::PredictionEvaluator(config).run(
        workload.trace, provider, meta);

    const auto spec =
        sim::shard_probability_volumes(&set, pvc.max_candidates);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      sim::ParallelEvalConfig par;
      par.threads = threads;
      const auto parallel =
          sim::ParallelEvaluator(config, par).run(workload.trace, spec,
                                                  meta);
      expect_identical(serial, parallel,
                       profile.name + " probability threads=" +
                           std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace piggyweb
