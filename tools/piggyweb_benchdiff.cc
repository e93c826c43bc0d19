// piggyweb_benchdiff — judge perfbench runs by the metrics BENCHMARK.json
// declares.
//
//   piggyweb_benchdiff --spec=BENCHMARK.json --baseline=a.jsonl
//       --candidate=b.jsonl [--json=diff.json]
//   piggyweb_benchdiff --baseline=a.jsonl --inject-slowdown=1.5
//       --inject-out=slow.jsonl       # fault injector for testing the gate
//
// Files hold perfbench result lines, one run per line; bench_compare.h
// gives the verdict rule. Exit codes: 0 = no regression, 1 = regression,
// 2 = usage error or malformed input.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_compare.h"
#include "cli_common.h"
#include "obs/json.h"

using namespace piggyweb;

namespace {

bool read_file(const std::string& path, std::string& text) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "benchdiff: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  text = buffer.str();
  return true;
}

bool load_spec(const std::string& path,
               std::vector<tools::BenchMetricSpec>& spec) {
  std::string text;
  if (!read_file(path, text)) return false;
  std::string error;
  const auto parsed = obs::parse_json(text, &error);
  if (parsed.has_value() && tools::parse_bench_spec(*parsed, spec, error)) {
    return true;
  }
  std::fprintf(stderr, "benchdiff: %s: %s\n", path.c_str(), error.c_str());
  return false;
}

bool load_runs(const std::string& path, std::vector<obs::Json>& runs) {
  std::string text;
  if (!read_file(path, text)) return false;
  std::string error;
  if (tools::parse_bench_runs(text, runs, error)) return true;
  std::fprintf(stderr, "benchdiff: %s: %s\n", path.c_str(), error.c_str());
  return false;
}

void print_diff(const tools::BenchDiff& diff) {
  std::printf("benchdiff: %zu pairs; failed output checks %.4g baseline, "
              "%.4g candidate%s\n",
              diff.pairs, diff.baseline_failed_share,
              diff.candidate_failed_share,
              diff.candidate_failed_share > diff.baseline_failed_share
                  ? " (REGRESSION)"
                  : "");
  for (const auto& metric : diff.metrics) {
    if (!metric.spec.end_to_end) {
      std::printf("  per-layer %-32s %12.6g -> %12.6g %s\n",
                  metric.spec.name.c_str(), metric.baseline_median,
                  metric.candidate_median, metric.spec.unit.c_str());
      continue;
    }
    const char* verdict =
        metric.verdict == tools::BenchVerdict::kRegression
            ? "REGRESSION"
            : tools::verdict_name(metric.verdict);
    std::printf("  %-10s %-20s %12.6g -> %12.6g %-4s worse %+.3f "
                "(bound %.2f, baseline IQR/median %.3f), wins %zu/%zu\n",
                verdict, metric.spec.name.c_str(),
                metric.baseline_median, metric.candidate_median,
                metric.spec.unit.c_str(), metric.worse, metric.spec.bound,
                metric.baseline_iqr / metric.baseline_median, metric.wins,
                diff.pairs);
  }
  std::printf("benchdiff: %s\n", diff.has_regression() ? "regression detected"
                                                       : "no regression");
}

// Writes every run with its end-to-end metrics `factor` times worse.
int write_injected(const std::vector<tools::BenchMetricSpec>& spec,
                   const std::vector<obs::Json>& runs, double factor,
                   const std::string& path) {
  if (path.empty()) {
    std::fprintf(stderr,
                 "benchdiff: --inject-slowdown requires --inject-out\n");
    return 2;
  }
  // Accept only input the comparison would accept: check it against itself.
  tools::BenchDiff diff;
  std::string error;
  if (!tools::compare_bench_runs(spec, runs, runs, diff, error)) {
    std::fprintf(stderr, "benchdiff: %s\n", error.c_str());
    return 2;
  }
  std::ofstream out(path);
  for (const auto& run : runs) {
    out << tools::inject_slowdown(run, spec, factor).dump() << "\n";
  }
  if (!out.good()) {
    std::fprintf(stderr, "benchdiff: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("benchdiff: wrote %s (end-to-end metrics %.3gx worse)\n",
              path.c_str(), factor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "judge perfbench runs by the metrics BENCHMARK.json declares");
  flags.add_string("spec", "BENCHMARK.json",
                   "benchmark spec: each metric's unit, direction and bound");
  flags.add_string("baseline", "",
                   "perfbench result lines of the 'before' runs, one per "
                   "line");
  flags.add_string("candidate", "",
                   "result lines of the 'after' runs; line i pairs with the "
                   "baseline's line i");
  flags.add_string("json", "", "write the machine-readable diff here");
  flags.add_double("inject-slowdown", 0,
                   "fault injector: write --baseline with every end-to-end "
                   "metric this many times worse to --inject-out");
  flags.add_string("inject-out", "", "output path for --inject-slowdown");
  if (!flags.parse(argc, argv)) return 2;

  std::vector<tools::BenchMetricSpec> spec;
  if (!load_spec(flags.get_string("spec"), spec)) return 2;
  const auto baseline_path = flags.get_string("baseline");
  if (baseline_path.empty()) {
    std::fprintf(stderr, "benchdiff: --baseline is required\n");
    return 2;
  }
  std::vector<obs::Json> baseline;
  if (!load_runs(baseline_path, baseline)) return 2;

  const double inject = flags.get_double("inject-slowdown");
  if (inject > 0) {
    return write_injected(spec, baseline, inject,
                          flags.get_string("inject-out"));
  }
  const auto candidate_path = flags.get_string("candidate");
  if (candidate_path.empty()) {
    std::fprintf(stderr, "benchdiff: --candidate is required\n");
    return 2;
  }
  std::vector<obs::Json> candidate;
  if (!load_runs(candidate_path, candidate)) return 2;
  tools::BenchDiff diff;
  std::string error;
  if (!tools::compare_bench_runs(spec, baseline, candidate, diff, error)) {
    std::fprintf(stderr, "benchdiff: %s\n", error.c_str());
    return 2;
  }

  print_diff(diff);
  const auto json_path = flags.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << diff.to_json().dump(2) << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "benchdiff: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
  }
  return diff.has_regression() ? 1 : 0;
}
