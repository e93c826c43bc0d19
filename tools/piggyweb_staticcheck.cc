// Project lint driver: runs the analysis rule set over the repository's
// own sources and reports findings as `file:line: [rule-id] message`
// lines (or JSON with --json). Exits 0 when there are no findings, 1
// when there are, and 2 on a usage error, when there is nothing to scan
// (no subdirectory, or one with no .h/.cc file), or when a subdirectory
// or file to scan cannot be read (nothing is reported then).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/rules.h"
#include "cli_common.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace {

using piggyweb::analysis::AnalyzeOptions;
using piggyweb::analysis::AnalyzeResult;
using piggyweb::analysis::Diagnostic;

// Findings per rule id, ordered by id (map order) so the summary is
// stable across runs.
std::map<std::string, std::size_t> count_by_rule(
    const std::vector<Diagnostic>& diagnostics) {
  std::map<std::string, std::size_t> counts;
  for (const auto& d : diagnostics) ++counts[d.rule];
  return counts;
}

piggyweb::obs::Json diagnostic_json(const Diagnostic& d) {
  auto obj = piggyweb::obs::Json::object();
  obj.set("file", d.file);
  obj.set("line", static_cast<std::int64_t>(d.line));
  obj.set("rule", d.rule);
  obj.set("message", d.message);
  return obj;
}

}  // namespace

int main(int argc, char** argv) {
  piggyweb::tools::FlagSet flags(
      "piggyweb_staticcheck -- lint the project sources with the "
      "determinism / mmap-confinement / flat-map / view-lifetime rule set");
  flags.add_string("root", ".", "repository root to scan");
  flags.add_string("subdirs", "src,tools,bench,tests",
                   "comma-separated subtrees to scan under the root");
  flags.add_bool("json", false, "emit machine-readable JSON on stdout");
  flags.add_bool("list-rules", false, "print the rule catalog and exit");
  piggyweb::tools::add_observability_flags(flags);
  if (!flags.parse(argc, argv)) return 2;
  const auto scope =
      piggyweb::tools::make_run_scope(flags, "staticcheck", argc, argv);

  if (flags.get_bool("list-rules")) {
    for (const auto& rule : piggyweb::analysis::rule_catalog()) {
      std::printf("%-26s %s\n", std::string(rule.id).c_str(),
                  std::string(rule.summary).c_str());
    }
    return 0;
  }

  AnalyzeOptions options;
  options.root = flags.get_string("root");
  options.subdirs.clear();
  {
    const std::string subdirs = flags.get_string("subdirs");
    std::size_t pos = 0;
    while (pos <= subdirs.size()) {
      const std::size_t comma = std::min(subdirs.find(',', pos),
                                         subdirs.size());
      if (comma > pos) {
        options.subdirs.push_back(subdirs.substr(pos, comma - pos));
      }
      pos = comma + 1;
    }
  }

  const AnalyzeResult result = piggyweb::analysis::analyze_tree(options);
  if (!result.errors.empty()) {
    for (const auto& error : result.errors) {
      std::fprintf(stderr, "piggyweb_staticcheck: %s\n", error.c_str());
    }
    return 2;
  }
  if (auto* metrics = piggyweb::obs::global_metrics(); metrics != nullptr) {
    metrics->counter("staticcheck.files_scanned", /*deterministic=*/true)
        .add(result.files_scanned);
    metrics->counter("staticcheck.findings", /*deterministic=*/true)
        .add(result.diagnostics.size());
  }

  if (flags.get_bool("json")) {
    auto report = piggyweb::obs::Json::object();
    report.set("files_scanned",
               static_cast<std::uint64_t>(result.files_scanned));
    auto findings = piggyweb::obs::Json::array();
    for (const auto& d : result.diagnostics) {
      findings.push_back(diagnostic_json(d));
    }
    report.set("findings", std::move(findings));
    auto rule_counts = piggyweb::obs::Json::object();
    for (const auto& [rule, count] : count_by_rule(result.diagnostics)) {
      rule_counts.set(rule, static_cast<std::uint64_t>(count));
    }
    report.set("rule_counts", std::move(rule_counts));
    report.set("ok", result.diagnostics.empty());
    std::printf("%s\n", report.dump(2).c_str());
  } else {
    for (const auto& d : result.diagnostics) {
      std::printf("%s\n",
                  piggyweb::analysis::format_diagnostic(d).c_str());
    }
    std::fprintf(stderr,
                 "piggyweb_staticcheck: %zu finding(s), %zu file(s) "
                 "scanned\n",
                 result.diagnostics.size(), result.files_scanned);
    // On failure, break the total down by rule so a CI log tells you
    // which checker fired without grepping the finding lines.
    if (!result.diagnostics.empty()) {
      for (const auto& [rule, count] : count_by_rule(result.diagnostics)) {
        std::fprintf(stderr, "piggyweb_staticcheck:   %-26s %zu\n",
                     rule.c_str(), count);
      }
    }
  }
  return result.diagnostics.empty() ? 0 : 1;
}
