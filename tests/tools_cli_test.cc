#include "cli_common.h"

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bench_compare.h"
#include "obs/json.h"

namespace piggyweb::tools {
namespace {

// Build argv from a list of literals.
class Argv {
 public:
  explicit Argv(std::initializer_list<const char*> args) {
    storage_.emplace_back("test-program");
    for (const auto* arg : args) storage_.emplace_back(arg);
    for (auto& s : storage_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

FlagSet standard_flags() {
  FlagSet flags("test");
  flags.add_string("name", "default", "a string");
  flags.add_double("ratio", 0.5, "a double");
  flags.add_int("count", 7, "an int");
  flags.add_bool("verbose", false, "a bool");
  return flags;
}

TEST(FlagSet, DefaultsWhenUnset) {
  auto flags = standard_flags();
  Argv argv({});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_string("name"), "default");
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.5);
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(FlagSet, ParsesAllTypes) {
  auto flags = standard_flags();
  Argv argv({"--name=piggy", "--ratio=0.25", "--count=42", "--verbose=true"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_string("name"), "piggy");
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.25);
  EXPECT_EQ(flags.get_int("count"), 42);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(FlagSet, BareBooleanFlag) {
  auto flags = standard_flags();
  Argv argv({"--verbose"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(FlagSet, RejectsUnknownFlag) {
  auto flags = standard_flags();
  Argv argv({"--nope=1"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(FlagSet, RejectsTypeMismatches) {
  {
    auto flags = standard_flags();
    Argv argv({"--count=abc"});
    EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
  }
  {
    auto flags = standard_flags();
    Argv argv({"--ratio=xyz"});
    EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
  }
  {
    auto flags = standard_flags();
    Argv argv({"--verbose=maybe"});
    EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
  }
}

TEST(FlagSet, RejectsPositionalArguments) {
  auto flags = standard_flags();
  Argv argv({"stray"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(FlagSet, HelpReturnsFalse) {
  auto flags = standard_flags();
  Argv argv({"--help"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(FlagSet, NegativeNumbers) {
  auto flags = standard_flags();
  Argv argv({"--count=-3", "--ratio=-0.5"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), -0.5);
}

TEST(FlagSet, EmptyStringValue) {
  auto flags = standard_flags();
  Argv argv({"--name="});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_string("name"), "");
}

TEST(FlagSet, LastValueWins) {
  auto flags = standard_flags();
  Argv argv({"--count=1", "--count=2"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 2);
}

obs::Json parse(const char* text) {
  std::string error;
  auto parsed = obs::parse_json(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed.has_value() ? *parsed : obs::Json::object();
}

// Two end-to-end metrics, one per direction, and one per-layer metric.
std::vector<BenchMetricSpec> test_spec() {
  const auto spec = parse(R"({
      "end_to_end": [
        {"name": "requests_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
      "per_layer": [
        {"name": "trace.open_s", "unit": "s", "better": "lower"}]})");
  std::vector<BenchMetricSpec> metrics;
  std::string error;
  EXPECT_TRUE(parse_bench_spec(spec, metrics, error)) << error;
  return metrics;
}

obs::Json metric(double value, const char* unit) {
  auto entry = obs::Json::object();
  entry.set("value", value);
  entry.set("unit", unit);
  return entry;
}

// One perfbench result line carrying both end-to-end metrics.
obs::Json result_line(double rate, double setup, int failed = 0) {
  auto metrics = obs::Json::object();
  metrics.set("requests_per_s", metric(rate, "1/s"));
  metrics.set("setup_s", metric(setup, "s"));
  auto run = obs::Json::object();
  run.set("correct", failed == 0);
  run.set("attempted", 10);
  run.set("failed", failed);
  run.set("metrics", std::move(metrics));
  return run;
}

std::vector<obs::Json> rate_runs(std::initializer_list<double> rates) {
  std::vector<obs::Json> runs;
  for (const double rate : rates) runs.push_back(result_line(rate, 1.0));
  return runs;
}

std::vector<obs::Json> setup_runs(std::initializer_list<double> setups) {
  std::vector<obs::Json> runs;
  for (const double setup : setups) runs.push_back(result_line(100, setup));
  return runs;
}

BenchDiff compare_ok(const std::vector<obs::Json>& baseline,
                     const std::vector<obs::Json>& candidate) {
  BenchDiff diff;
  std::string error;
  EXPECT_TRUE(
      compare_bench_runs(test_spec(), baseline, candidate, diff, error))
      << error;
  return diff;
}

std::string compare_error(const std::vector<obs::Json>& baseline,
                          const std::vector<obs::Json>& candidate) {
  BenchDiff diff;
  std::string error;
  EXPECT_FALSE(
      compare_bench_runs(test_spec(), baseline, candidate, diff, error));
  return error;
}

BenchVerdict verdict_of(const BenchDiff& diff, std::string_view name) {
  for (const auto& entry : diff.metrics) {
    if (entry.spec.name == name) return entry.verdict;
  }
  ADD_FAILURE() << name << " not compared";
  return BenchVerdict::kOk;
}

TEST(BenchCompare, IdenticalReportsHaveNoRegression) {
  const auto runs = rate_runs({100, 101, 99, 100, 102});
  const auto diff = compare_ok(runs, runs);
  EXPECT_FALSE(diff.has_regression());
  EXPECT_EQ(diff.pairs, 5u);
  ASSERT_EQ(diff.metrics.size(), 2u);  // no run carries trace.open_s
  for (const auto& entry : diff.metrics) {
    EXPECT_EQ(entry.verdict, BenchVerdict::kOk) << entry.spec.name;
    EXPECT_EQ(entry.wins, 0u);  // ties count for neither side
    EXPECT_DOUBLE_EQ(entry.worse, 0.0);
  }
}

TEST(BenchCompare, FlagsTimingBeyondThreshold) {
  const auto base = setup_runs({1.0, 1.01, 0.99, 1.0, 1.0});
  // 30 % slower is beyond the 0.25 bound; 20 % slower is within it.
  const auto slow = compare_ok(base, setup_runs({1.3, 1.3, 1.3, 1.3, 1.3}));
  EXPECT_EQ(verdict_of(slow, "setup_s"), BenchVerdict::kRegression);
  EXPECT_NEAR(slow.metrics[1].worse, 0.3, 1e-12);
  EXPECT_TRUE(slow.has_regression());
  const auto close = compare_ok(base, setup_runs({1.2, 1.2, 1.2, 1.2, 1.2}));
  EXPECT_EQ(verdict_of(close, "setup_s"), BenchVerdict::kOk);
  EXPECT_FALSE(close.has_regression());
}

TEST(BenchCompare, RatesGateInTheOppositeDirection) {
  const auto base = rate_runs({100, 101, 99, 100, 102});
  const auto worse = compare_ok(base, rate_runs({70, 71, 69, 70, 72}));
  EXPECT_EQ(verdict_of(worse, "requests_per_s"), BenchVerdict::kRegression);
  EXPECT_TRUE(worse.has_regression());
  const auto better = compare_ok(base, rate_runs({130, 131, 129, 130, 132}));
  EXPECT_EQ(verdict_of(better, "requests_per_s"), BenchVerdict::kGain);
  EXPECT_FALSE(better.has_regression());
}

TEST(BenchCompare, WideBaselineSpreadIsUnresolved) {
  // IQR / median = 40 / 100, wider than the 0.25 bound.
  const auto base = rate_runs({60, 80, 100, 120, 140});
  const auto level = compare_ok(base, rate_runs({95, 100, 105, 90, 110}));
  EXPECT_EQ(verdict_of(level, "requests_per_s"), BenchVerdict::kUnresolved);
  EXPECT_FALSE(level.has_regression());
  // ... unless every candidate run beats every baseline run.
  const auto above = compare_ok(base, rate_runs({150, 160, 170, 180, 190}));
  EXPECT_EQ(verdict_of(above, "requests_per_s"), BenchVerdict::kGain);
  // A median worse by more than the bound is a regression regardless.
  const auto below = compare_ok(base, rate_runs({50, 60, 70, 80, 90}));
  EXPECT_EQ(verdict_of(below, "requests_per_s"), BenchVerdict::kRegression);
}

TEST(BenchCompare, GainNeedsNineOfTenPairsAndMediansApartByMoreThanIqr) {
  const auto base =
      rate_runs({100, 101, 99, 100, 102, 98, 100, 101, 99, 100});
  const auto nine =
      compare_ok(base, rate_runs({110, 111, 109, 110, 112, 108, 110, 111,
                                  109, 99}));
  EXPECT_EQ(nine.metrics[0].wins, 9u);
  EXPECT_EQ(verdict_of(nine, "requests_per_s"), BenchVerdict::kGain);
  const auto eight =
      compare_ok(base, rate_runs({110, 111, 109, 110, 112, 108, 110, 111,
                                  98, 99}));
  EXPECT_EQ(eight.metrics[0].wins, 8u);
  EXPECT_EQ(verdict_of(eight, "requests_per_s"), BenchVerdict::kOk);
  // Every pair won, but by less than the baseline's IQR.
  const auto within =
      compare_ok(base, rate_runs({100.5, 101.5, 99.5, 100.5, 102.5, 98.5,
                                  100.5, 101.5, 99.5, 100.5}));
  EXPECT_EQ(within.metrics[0].wins, 10u);
  EXPECT_EQ(verdict_of(within, "requests_per_s"), BenchVerdict::kOk);
}

TEST(BenchCompare, HigherFailedShareIsARegression) {
  const auto clean = rate_runs({100, 100, 100});
  auto failing = clean;
  failing[1] = result_line(100, 1.0, /*failed=*/1);
  const auto diff = compare_ok(clean, failing);
  EXPECT_DOUBLE_EQ(diff.candidate_failed_share, 1.0 / 30);
  EXPECT_EQ(verdict_of(diff, "requests_per_s"), BenchVerdict::kOk);
  EXPECT_TRUE(diff.has_regression());
  EXPECT_FALSE(compare_ok(failing, clean).has_regression());
}

TEST(BenchCompare, PerLayerMetricsAreNeverGated) {
  const auto traced = [](double open_s) {
    auto metrics = obs::Json::object();
    metrics.set("trace.open_s", metric(open_s, "s"));
    auto run = obs::Json::object();
    run.set("attempted", 10);
    run.set("failed", 0);
    run.set("metrics", std::move(metrics));
    return run;
  };
  const auto diff = compare_ok({traced(1), traced(2), traced(3)},
                               {traced(10), traced(20), traced(30)});
  EXPECT_FALSE(diff.has_regression());
  ASSERT_EQ(diff.metrics.size(), 1u);
  EXPECT_FALSE(diff.metrics[0].spec.end_to_end);
  EXPECT_DOUBLE_EQ(diff.metrics[0].baseline_median, 2.0);
  EXPECT_DOUBLE_EQ(diff.metrics[0].candidate_median, 20.0);
}

TEST(BenchCompare, InjectSlowdownScalesTimingsAndRates) {
  const auto spec = test_spec();
  auto run = result_line(150, 2.0);
  auto metrics = *run.find("metrics");
  metrics.set("trace.open_s", metric(0.5, "s"));
  run.set("metrics", std::move(metrics));
  const auto slow = inject_slowdown(run, spec, 1.5);
  const auto& scaled = *slow.find("metrics");
  EXPECT_DOUBLE_EQ(scaled.find("requests_per_s")->find("value")->number(),
                   100.0);
  EXPECT_DOUBLE_EQ(scaled.find("setup_s")->find("value")->number(), 3.0);
  EXPECT_EQ(scaled.find("setup_s")->find("unit")->string(), "s");
  EXPECT_DOUBLE_EQ(scaled.find("trace.open_s")->find("value")->number(),
                   0.5);
  EXPECT_DOUBLE_EQ(slow.find("attempted")->number(), 10.0);

  const auto base = rate_runs({100, 101, 99});
  std::vector<obs::Json> slowed;
  for (const auto& line : base) {
    slowed.push_back(inject_slowdown(line, spec, 1.5));
  }
  const auto diff = compare_ok(base, slowed);
  EXPECT_EQ(verdict_of(diff, "requests_per_s"), BenchVerdict::kRegression);
  EXPECT_EQ(verdict_of(diff, "setup_s"), BenchVerdict::kRegression);
  std::vector<obs::Json> same;
  for (const auto& line : base) {
    same.push_back(inject_slowdown(line, spec, 1.0));
  }
  EXPECT_FALSE(compare_ok(base, same).has_regression());
}

TEST(BenchCompare, ReportJsonShape) {
  const auto diff = compare_ok(setup_runs({1.0, 1.0}), setup_runs({2.0, 2.0}));
  const auto json = diff.to_json();
  EXPECT_EQ(json.find("piggyweb_benchdiff")->number(), 2.0);
  EXPECT_EQ(json.find("pairs")->number(), 2.0);
  EXPECT_TRUE(json.find("regression")->boolean());
  const auto* metrics = json.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->items().size(), 2u);
  const auto& setup = metrics->items()[1];
  EXPECT_EQ(setup.find("name")->string(), "setup_s");
  EXPECT_EQ(setup.find("better")->string(), "lower");
  EXPECT_EQ(setup.find("verdict")->string(), "regression");
  EXPECT_DOUBLE_EQ(setup.find("worse")->number(), 1.0);
  EXPECT_DOUBLE_EQ(setup.find("bound")->number(), 0.25);
}

TEST(BenchCompare, RejectsBadJsonLine) {
  const std::string good = result_line(100, 1.0).dump();
  std::vector<obs::Json> runs;
  std::string error;
  ASSERT_TRUE(parse_bench_runs("\n" + good + "\n\n" + good + "\n", runs,
                               error))
      << error;
  EXPECT_EQ(runs.size(), 2u);  // blank lines are not runs
  runs.clear();
  const std::string truncated = good.substr(0, good.size() / 2);
  EXPECT_FALSE(parse_bench_runs(good + "\n" + truncated + "\n", runs, error));
  EXPECT_NE(error.find("line 2: invalid JSON"), std::string::npos) << error;
  EXPECT_FALSE(parse_bench_runs("[1, 2]\n", runs, error));
  EXPECT_NE(error.find("line 1: not a JSON object"), std::string::npos)
      << error;
}

TEST(BenchCompare, RejectsRunWithoutMetrics) {
  auto runs = rate_runs({100, 100});
  auto bare = obs::Json::object();
  bare.set("attempted", 10);
  bare.set("failed", 0);
  auto candidate = runs;
  candidate[1] = bare;
  EXPECT_NE(compare_error(runs, candidate).find("candidate run 2: no "
                                                "\"metrics\" object"),
            std::string::npos);
  candidate[1] = result_line(100, 1.0, /*failed=*/11);  // more than attempted
  EXPECT_NE(compare_error(runs, candidate).find("attempted"),
            std::string::npos);
}

TEST(BenchCompare, RejectsUnitThatDiffersFromSpec) {
  const auto runs = setup_runs({1.0, 1.0});
  auto candidate = runs;
  auto metrics = *candidate[0].find("metrics");
  metrics.set("setup_s", metric(1000, "ms"));
  candidate[0].set("metrics", std::move(metrics));
  EXPECT_NE(compare_error(runs, candidate).find("setup_s is not in s"),
            std::string::npos);
}

TEST(BenchCompare, RejectsMetricOnlySomeRunsCarry) {
  const auto runs = setup_runs({1.0, 1.0});
  auto candidate = runs;
  auto metrics = obs::Json::object();
  metrics.set("requests_per_s", metric(100, "1/s"));
  candidate[1].set("metrics", std::move(metrics));
  EXPECT_NE(compare_error(runs, candidate).find("setup_s is in 3 of 4 runs"),
            std::string::npos);
}

TEST(BenchCompare, RejectsUnequalRunCounts) {
  EXPECT_NE(compare_error(rate_runs({100, 100, 100}), rate_runs({100, 100}))
                .find("same number of runs"),
            std::string::npos);
  EXPECT_NE(compare_error({}, {}).find("at least one"), std::string::npos);
}

TEST(BenchCompare, RejectsMalformedSpec) {
  std::vector<BenchMetricSpec> metrics;
  std::string error;
  EXPECT_FALSE(parse_bench_spec(
      parse(R"({"end_to_end": [{"name": "x", "unit": "s",
                                 "better": "lower"}], "per_layer": []})"),
      metrics, error));
  EXPECT_NE(error.find("no positive bound"), std::string::npos) << error;
  EXPECT_FALSE(parse_bench_spec(
      parse(R"({"end_to_end": [], "per_layer": [{"name": "x", "unit": "s",
                                                 "better": "up"}]})"),
      metrics, error));
  EXPECT_FALSE(parse_bench_spec(parse(R"({"end_to_end": []})"), metrics,
                                error));
  EXPECT_NE(error.find("per_layer"), std::string::npos) << error;
}

}  // namespace
}  // namespace piggyweb::tools
