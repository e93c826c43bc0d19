// Minimal fixed-width table rendering for the bench binaries, which print
// the paper's tables/figure series as aligned text.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace piggyweb::sim {

struct EvalResult;

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  // Cell formatting helpers.
  static std::string num(double v, int decimals = 2);
  static std::string pct(double fraction, int decimals = 1);
  static std::string count(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// One row of the §3.1 metric report: a stable machine-readable key (the
// JSON field name), the human label the text table prints, and the value.
// Both renderers below iterate the same eval_report_fields() list, so the
// two outputs can never drift apart field-by-field.
struct EvalReportField {
  enum class Kind { kPercent, kNumber, kCount };
  const char* key;
  const char* label;
  Kind kind;
  double value;  // counts are exact: all counters stay far below 2^53
};

// The report rows in render order — the single source of truth.
std::vector<EvalReportField> eval_report_fields(const EvalResult& result);

// The §3.1 metric table for one evaluation, rendered to a string — shared
// by piggyweb_evaluate and the thread-count equivalence tests, so
// "identical report output" is asserted against the exact production
// rendering.
std::string render_eval_report(const EvalResult& result);

// The same fields as a JSON object (keys in render order): percents as
// fractions in [0,1], counts as integers. For piggyweb_evaluate
// --report=json and anything downstream that diffs runs.
std::string render_eval_report_json(const EvalResult& result);

}  // namespace piggyweb::sim
