#include "bench_compare.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/stats.h"
#include "util/strings.h"

namespace piggyweb::tools {

namespace {

const std::string* string_member(const obs::Json& object,
                                 std::string_view key) {
  const auto* value = object.is_object() ? object.find(key) : nullptr;
  return value != nullptr && value->is_string() ? &value->string() : nullptr;
}

std::optional<double> number_member(const obs::Json& object,
                                    std::string_view key) {
  const auto* value = object.is_object() ? object.find(key) : nullptr;
  if (value == nullptr || !value->is_number()) return std::nullopt;
  return value->number();
}

bool parse_metric_list(const obs::Json& spec, const char* list,
                       bool end_to_end, std::vector<BenchMetricSpec>& metrics,
                       std::string& error) {
  const auto* items = spec.is_object() ? spec.find(list) : nullptr;
  if (items == nullptr || !items->is_array()) {
    error = std::string("spec has no \"") + list + "\" list";
    return false;
  }
  for (const auto& item : items->items()) {
    const auto* name = string_member(item, "name");
    const auto* unit = string_member(item, "unit");
    const auto* better = string_member(item, "better");
    if (name == nullptr || unit == nullptr || better == nullptr ||
        (*better != "higher" && *better != "lower")) {
      error = std::string("spec \"") + list +
              "\" entry lacks a name, unit or better (higher|lower)";
      return false;
    }
    BenchMetricSpec metric{*name, *unit, *better == "higher", end_to_end, 0};
    if (end_to_end) {
      const auto bound = number_member(item, "bound");
      if (!bound.has_value() || !(*bound > 0)) {
        error = std::string("spec metric ") + *name + " has no positive bound";
        return false;
      }
      metric.bound = *bound;
    }
    metrics.push_back(std::move(metric));
  }
  return true;
}

std::string run_label(const char* side, std::size_t index) {
  return std::string(side) + " run " + std::to_string(index + 1);
}

// Checks each run's shape and returns failed / attempted over all of them.
bool failed_share(const std::vector<obs::Json>& runs, const char* side,
                  double& share, std::string& error) {
  double attempted = 0;
  double failed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto* metrics = runs[i].find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      error = run_label(side, i) + ": no \"metrics\" object";
      return false;
    }
    const auto run_attempted = number_member(runs[i], "attempted");
    const auto run_failed = number_member(runs[i], "failed");
    if (!run_attempted.has_value() || !run_failed.has_value() ||
        *run_failed < 0 || *run_failed > *run_attempted) {
      error = run_label(side, i) +
              ": no valid \"attempted\"/\"failed\" counts";
      return false;
    }
    attempted += *run_attempted;
    failed += *run_failed;
  }
  share = attempted > 0 ? failed / attempted : 0;
  return true;
}

// Appends the metric's value in every run of one side that carries it.
bool collect_values(const BenchMetricSpec& metric,
                    const std::vector<obs::Json>& runs, const char* side,
                    std::vector<double>& values, std::string& error) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto* entry = runs[i].find("metrics")->find(metric.name);
    if (entry == nullptr) continue;
    const auto value = number_member(*entry, "value");
    const auto* unit = string_member(*entry, "unit");
    const auto where = run_label(side, i) + ": " + metric.name;
    if (!value.has_value()) {
      error = where + " has no numeric value";
      return false;
    }
    if (unit == nullptr || *unit != metric.unit) {
      error = where + " is not in " + metric.unit + ", the spec's unit";
      return false;
    }
    if (metric.end_to_end && !(*value > 0)) {
      error = where + " is not positive";
      return false;
    }
    values.push_back(*value);
  }
  return true;
}

BenchMetricDiff judge(const BenchMetricSpec& metric,
                      const std::vector<double>& baseline,
                      const std::vector<double>& candidate) {
  util::Quantiles base;
  util::Quantiles cand;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    base.add(baseline[i]);
    cand.add(candidate[i]);
  }
  BenchMetricDiff diff;
  diff.spec = metric;
  diff.baseline_median = base.median();
  diff.candidate_median = cand.median();
  diff.baseline_iqr = base.quantile(0.75) - base.quantile(0.25);
  if (!metric.end_to_end) return diff;

  const auto better = [&metric](double a, double b) {
    return metric.higher_is_better ? a > b : a < b;
  };
  const double worse_by =
      metric.higher_is_better ? diff.baseline_median - diff.candidate_median
                              : diff.candidate_median - diff.baseline_median;
  diff.worse = worse_by / diff.baseline_median;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (better(candidate[i], baseline[i])) ++diff.wins;
  }
  // Every candidate run beats every baseline run when the worst candidate
  // run beats the best baseline run.
  const bool candidate_dominates =
      metric.higher_is_better ? cand.quantile(0) > base.quantile(1)
                              : cand.quantile(1) < base.quantile(0);

  if (diff.worse > metric.bound) {
    diff.verdict = BenchVerdict::kRegression;
  } else if (diff.baseline_iqr / diff.baseline_median > metric.bound &&
             !candidate_dominates) {
    diff.verdict = BenchVerdict::kUnresolved;
  } else if (diff.wins * 10 >= baseline.size() * 9 &&
             -worse_by > diff.baseline_iqr) {
    diff.verdict = BenchVerdict::kGain;
  }
  return diff;
}

}  // namespace

bool parse_bench_spec(const obs::Json& spec,
                      std::vector<BenchMetricSpec>& metrics,
                      std::string& error) {
  return parse_metric_list(spec, "end_to_end", true, metrics, error) &&
         parse_metric_list(spec, "per_layer", false, metrics, error);
}

bool parse_bench_runs(std::string_view text, std::vector<obs::Json>& runs,
                      std::string& error) {
  std::size_t line_number = 0;
  for (const auto line : util::split(text, '\n')) {
    ++line_number;
    if (util::trim(line).empty()) continue;
    std::string parse_error;
    auto run = obs::parse_json(line, &parse_error);
    if (!run.has_value() || !run->is_object()) {
      error = std::string("line ") + std::to_string(line_number) + ": " +
              (run.has_value() ? "not a JSON object"
                               : std::string("invalid JSON: ") + parse_error);
      return false;
    }
    runs.push_back(std::move(*run));
  }
  return true;
}

const char* verdict_name(BenchVerdict verdict) {
  switch (verdict) {
    case BenchVerdict::kOk:
      return "ok";
    case BenchVerdict::kGain:
      return "gain";
    case BenchVerdict::kUnresolved:
      return "unresolved";
    case BenchVerdict::kRegression:
      return "regression";
  }
  return "unknown";
}

bool BenchDiff::has_regression() const {
  if (candidate_failed_share > baseline_failed_share) return true;
  return std::any_of(metrics.begin(), metrics.end(), [](const auto& metric) {
    return metric.verdict == BenchVerdict::kRegression;
  });
}

obs::Json BenchDiff::to_json() const {
  auto root = obs::Json::object();
  root.set("piggyweb_benchdiff", 2);
  root.set("pairs", pairs);
  root.set("baseline_failed_share", baseline_failed_share);
  root.set("candidate_failed_share", candidate_failed_share);
  root.set("regression", has_regression());
  auto list = obs::Json::array();
  for (const auto& metric : metrics) {
    auto entry = obs::Json::object();
    entry.set("name", metric.spec.name);
    entry.set("unit", metric.spec.unit);
    entry.set("better", metric.spec.higher_is_better ? "higher" : "lower");
    entry.set("baseline_median", metric.baseline_median);
    entry.set("candidate_median", metric.candidate_median);
    entry.set("baseline_iqr", metric.baseline_iqr);
    if (metric.spec.end_to_end) {
      entry.set("bound", metric.spec.bound);
      entry.set("worse", metric.worse);
      entry.set("wins", metric.wins);
      entry.set("verdict", verdict_name(metric.verdict));
    }
    list.push_back(std::move(entry));
  }
  root.set("metrics", std::move(list));
  return root;
}

bool compare_bench_runs(const std::vector<BenchMetricSpec>& spec,
                        const std::vector<obs::Json>& baseline,
                        const std::vector<obs::Json>& candidate,
                        BenchDiff& diff, std::string& error) {
  if (baseline.empty() || baseline.size() != candidate.size()) {
    error = std::string("the baseline holds ") +
            std::to_string(baseline.size()) +
            " runs and the candidate " + std::to_string(candidate.size()) +
            "; pairs need the same number of runs, at least one";
    return false;
  }
  diff = BenchDiff{};
  diff.pairs = baseline.size();
  if (!failed_share(baseline, "baseline", diff.baseline_failed_share,
                    error) ||
      !failed_share(candidate, "candidate", diff.candidate_failed_share,
                    error)) {
    return false;
  }
  for (const auto& metric : spec) {
    std::vector<double> base;
    std::vector<double> cand;
    if (!collect_values(metric, baseline, "baseline", base, error) ||
        !collect_values(metric, candidate, "candidate", cand, error)) {
      return false;
    }
    if (base.empty() && cand.empty()) continue;
    if (base.size() != diff.pairs || cand.size() != diff.pairs) {
      error = metric.name + " is in " +
              std::to_string(base.size() + cand.size()) + " of " +
              std::to_string(2 * diff.pairs) +
              " runs; it must be in all or none";
      return false;
    }
    diff.metrics.push_back(judge(metric, base, cand));
  }
  return true;
}

obs::Json inject_slowdown(const obs::Json& run,
                          const std::vector<BenchMetricSpec>& spec,
                          double factor) {
  auto metrics = *run.find("metrics");
  for (const auto& metric : spec) {
    const auto* entry = metrics.find(metric.name);
    if (!metric.end_to_end || entry == nullptr) continue;
    const double value = entry->find("value")->number();
    auto scaled = *entry;
    scaled.set("value",
               metric.higher_is_better ? value / factor : value * factor);
    metrics.set(metric.name, std::move(scaled));
  }
  auto slowed = run;
  slowed.set("metrics", std::move(metrics));
  return slowed;
}

}  // namespace piggyweb::tools
