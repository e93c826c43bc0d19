// Drives staticcheck over a source tree on disk: walks the analyzed
// directories, loads every .h/.cc into a Project and runs all rules.
// The walker skips build output and the lint fixtures themselves (any
// directory named "testdata").
#pragma once

#include <string>
#include <vector>

#include "analysis/project.h"

namespace piggyweb::analysis {

struct AnalyzeOptions {
  // Repo root on disk; analyzed paths are reported relative to it.
  std::string root = ".";
  // Subtrees to scan, relative to root.
  std::vector<std::string> subdirs = {"src", "tools", "bench", "tests"};
};

struct AnalyzeResult {
  std::vector<Diagnostic> diagnostics;  // report order
  std::size_t files_scanned = 0;
  // What could not be read: a subdirectory that is not a directory, a
  // directory or file that cannot be opened. Any entry means the tree
  // was not analyzed, and the rules did not run.
  std::vector<std::string> errors;
};

// Repo-relative paths of every analyzable file under options.subdirs,
// sorted. Skips directories named "testdata", ".git", ".claude", and
// any starting with "build". A subdirectory that is missing or cannot
// be listed is reported into `errors`.
std::vector<std::string> collect_tree(const AnalyzeOptions& options,
                                      std::vector<std::string>& errors);

// collect_tree, then load every file and run every rule.
AnalyzeResult analyze_tree(const AnalyzeOptions& options);

}  // namespace piggyweb::analysis
