// Golden regression for the prediction evaluator under proxy filters that
// reject candidates: all nine EvalResult counters for one fixed synthetic
// log, asserted exactly at one and four threads. The values were captured
// from the evaluator that filtered each provider's whole capped candidate
// list. A provider that stops offering candidates once the message is full
// must reproduce them, including when the filter drops candidates by size,
// type, access count or probability, and when max_candidates runs out
// before max_elements does.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "server/meta.h"
#include "sim/parallel_eval.h"
#include "trace/profiles.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggyweb {
namespace {

const trace::SyntheticWorkload& shared_workload() {
  static const trace::SyntheticWorkload workload =
      trace::generate(trace::att_client_profile(0.01));
  return workload;
}

const server::TraceMetaOracle& shared_meta() {
  static const server::TraceMetaOracle meta(shared_workload().trace);
  return meta;
}

const volume::ProbabilityVolumeSet& shared_volume_set() {
  static const volume::ProbabilityVolumeSet set = [] {
    const auto& trace = shared_workload().trace;
    volume::PairCounterConfig pcc;
    const auto counts = volume::PairCounterBuilder(pcc).build(trace, 5);
    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = 0.1;
    return volume::build_probability_volumes(trace, counts, pvc);
  }();
  return set;
}

struct Counters {
  std::uint64_t requests, predicted_requests, piggyback_messages,
      piggyback_elements, predictions_made, predictions_true,
      prev_occurrence_within_horizon, prev_occurrence_within_window,
      updated_by_piggyback;
};

void expect_counters(const sim::EvalResult& r, const Counters& g,
                     const std::string& label) {
  EXPECT_EQ(r.requests, g.requests) << label;
  EXPECT_EQ(r.predicted_requests, g.predicted_requests) << label;
  EXPECT_EQ(r.piggyback_messages, g.piggyback_messages) << label;
  EXPECT_EQ(r.piggyback_elements, g.piggyback_elements) << label;
  EXPECT_EQ(r.predictions_made, g.predictions_made) << label;
  EXPECT_EQ(r.predictions_true, g.predictions_true) << label;
  EXPECT_EQ(r.prev_occurrence_within_horizon, g.prev_occurrence_within_horizon)
      << label;
  EXPECT_EQ(r.prev_occurrence_within_window, g.prev_occurrence_within_window)
      << label;
  EXPECT_EQ(r.updated_by_piggyback, g.updated_by_piggyback) << label;
}

sim::EvalResult run(const sim::EvalConfig& config,
                    const sim::ShardedProviderSpec& spec,
                    std::size_t threads) {
  sim::ParallelEvalConfig par;
  par.threads = threads;
  return sim::ParallelEvaluator(config, par)
      .run(shared_workload().trace, spec, shared_meta());
}

void expect_directory(const sim::EvalConfig& config,
                      const volume::DirectoryVolumeConfig& dvc,
                      const std::string& label, const Counters& golden) {
  const auto spec = sim::shard_directory_volumes(dvc, shared_workload().trace);
  for (const std::size_t threads : {1u, 4u}) {
    expect_counters(run(config, spec, threads), golden,
                    label + " t" + std::to_string(threads));
  }
}

sim::EvalConfig with_max_elements(std::uint32_t max_elements) {
  sim::EvalConfig config;
  config.filter.max_elements = max_elements;
  return config;
}

volume::DirectoryVolumeConfig at_level(int level) {
  volume::DirectoryVolumeConfig dvc;
  dvc.level = level;
  return dvc;
}

TEST(EvalGolden, DirectoryLevelsAndMessageCaps) {
  struct Case {
    int level;
    std::uint32_t max_elements;
    Counters golden;
  };
  const Case cases[] = {
      {0, 1, {11125, 3728, 11027, 11027, 6699, 2057, 5344, 4104, 69}},
      {0, 20, {11125, 5644, 11027, 198296, 10597, 3199, 5344, 4104, 915}},
      {0, 50, {11125, 6423, 11027, 373616, 15947, 3882, 5344, 4104, 1216}},
      {1, 1, {11125, 4137, 10553, 10553, 6651, 2298, 5344, 4104, 158}},
      {1, 20, {11125, 6149, 10553, 100072, 12799, 3652, 5344, 4104, 1105}},
      {1, 50, {11125, 6230, 10553, 106570, 13666, 3732, 5344, 4104, 1117}},
      {2, 1, {11125, 4254, 10035, 10035, 6207, 2393, 5344, 4104, 199}},
      {2, 20, {11125, 6052, 10035, 74814, 10046, 3576, 5344, 4104, 1054}},
      {2, 50, {11125, 6052, 10035, 74930, 10055, 3580, 5344, 4104, 1054}},
  };
  for (const auto& c : cases) {
    expect_directory(with_max_elements(c.max_elements), at_level(c.level),
                     "level " + std::to_string(c.level) + " maxpiggy " +
                         std::to_string(c.max_elements),
                     c.golden);
  }
}

TEST(EvalGolden, AccessCountFilter) {
  auto config = with_max_elements(20);
  config.filter.min_access_count = 10;
  expect_directory(config, at_level(1), "minfreq 10",
                   {11125, 2332, 4248, 21965, 1458, 1104, 5344, 4104, 308});
}

TEST(EvalGolden, SizeFilter) {
  auto config = with_max_elements(20);
  config.filter.max_size = 4096;
  expect_directory(config, at_level(1), "max_size 4096",
                   {11125, 4597, 10131, 71975, 8611, 2683, 5344, 4104, 797});
}

TEST(EvalGolden, NoImagesFilter) {
  auto config = with_max_elements(20);
  config.filter.allow_image = false;
  expect_directory(config, at_level(1), "no images",
                   {11125, 584, 4634, 27899, 5477, 489, 5344, 4104, 150});
}

TEST(EvalGolden, CandidateCapBeforeMessageCap) {
  auto config = with_max_elements(20);
  config.filter.min_access_count = 10;
  auto dvc = at_level(1);
  dvc.max_candidates = 8;
  expect_directory(config, dvc, "max_candidates 8, minfreq 10",
                   {11125, 2147, 4142, 15843, 1320, 980, 5344, 4104, 240});
}

TEST(EvalGolden, RpvAndMinimumInterval) {
  auto config = with_max_elements(20);
  config.use_rpv = true;
  config.rpv.timeout = 30;
  config.min_piggyback_interval = 15;
  expect_directory(config, at_level(1), "rpv 30, min interval 15",
                   {11125, 3930, 2213, 19313, 9772, 2423, 5344, 4104, 712});
}

TEST(EvalGolden, ProbabilityThresholdAndCandidateCap) {
  auto config = with_max_elements(20);
  config.filter.probability_threshold = 0.4;
  const auto spec = sim::shard_probability_volumes(&shared_volume_set(), 3);
  const Counters golden{11125, 3882, 7305, 21905, 3208,
                        1944,  5344, 4104, 478};
  for (const std::size_t threads : {1u, 4u}) {
    expect_counters(run(config, spec, threads), golden,
                    "probability pt 0.4, max_candidates 3 t" +
                        std::to_string(threads));
  }
}

}  // namespace
}  // namespace piggyweb
