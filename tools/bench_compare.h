// Judges perfbench runs by the metrics BENCHMARK.json declares. A run is
// one perfbench result line, the last stdout line of perfbench/run.py:
//
//   {"correct": true, "attempted": 40, "failed": 0,
//    "metrics": {"setup_s": {"value": 0.012, "unit": "s"}, ...}}
//
// A result file holds one run per line, and line i of the baseline file
// pairs with line i of the candidate file, so runs made in alternation
// pair with their neighbours in time.
//
// The spec gives every metric its unit and direction ("better"), and
// every end-to-end metric the relative bound by which it may worsen. Each
// end-to-end metric the runs carry gets one verdict, tried in this order:
//
//   regression  the candidate median is worse than the baseline median by
//               more than the bound (relative to the baseline median);
//   unresolved  the baseline's IQR / median exceeds the bound, and not
//               every candidate run beats every baseline run;
//   gain        the candidate wins at least 9 of 10 pairs (ties count for
//               neither side) and the medians differ by more than the
//               baseline IQR;
//   ok          anything else.
//
// A higher share of failed output checks (failed / attempted over all
// runs of a side) is a regression too. Per-layer metrics are summarised
// by their medians and never gated.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace piggyweb::tools {

struct BenchMetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  bool end_to_end = false;  // gated; per-layer metrics are not
  double bound = 0;         // end-to-end only, e.g. 0.25 = 25 % worse
};

// Reads the spec's "end_to_end" and "per_layer" lists, end-to-end metrics
// first. Returns false with a message when the spec is malformed.
bool parse_bench_spec(const obs::Json& spec,
                      std::vector<BenchMetricSpec>& metrics,
                      std::string& error);

// Splits a result file into runs, one JSON object per non-blank line.
// Returns false with "line N: ..." on the first line that is not one.
bool parse_bench_runs(std::string_view text, std::vector<obs::Json>& runs,
                      std::string& error);

enum class BenchVerdict { kOk, kGain, kUnresolved, kRegression };

struct BenchMetricDiff {
  BenchMetricSpec spec;
  double baseline_median = 0;
  double candidate_median = 0;
  double baseline_iqr = 0;
  // Relative change of the median in the metric's own direction: 0.1
  // means the candidate is 10 % worse, -0.1 that it is 10 % better.
  double worse = 0;
  std::size_t wins = 0;  // pairs in which the candidate reads better
  BenchVerdict verdict = BenchVerdict::kOk;  // kOk for per-layer metrics
};

struct BenchDiff {
  std::size_t pairs = 0;
  double baseline_failed_share = 0;
  double candidate_failed_share = 0;
  // Every spec metric the runs carry, in spec order.
  std::vector<BenchMetricDiff> metrics;

  bool has_regression() const;

  // Machine-readable form (written by --json=).
  obs::Json to_json() const;
};

const char* verdict_name(BenchVerdict verdict);

// Compares candidate runs against baseline runs. Returns false with a
// message when the input is malformed: a run without a "metrics" object
// or without valid "attempted"/"failed" counts, a metric entry without a
// numeric value, an end-to-end value that is not positive, a unit that
// differs from the spec, a spec metric that only some runs carry, or
// files holding different numbers of runs (or none).
bool compare_bench_runs(const std::vector<BenchMetricSpec>& spec,
                        const std::vector<obs::Json>& baseline,
                        const std::vector<obs::Json>& candidate,
                        BenchDiff& diff, std::string& error);

// Fault injector that proves the gate can fail: a copy of `run` with every
// end-to-end metric `factor` times worse in its own direction (lower-is-
// better values multiplied, higher-is-better values divided by it).
// `run` must be one that compare_bench_runs accepts.
obs::Json inject_slowdown(const obs::Json& run,
                          const std::vector<BenchMetricSpec>& spec,
                          double factor);

}  // namespace piggyweb::tools
