// Drives staticcheck: lexes one file and runs every rule over it, or
// walks the analyzed directories on disk and does that for each .h/.cc
// in turn, holding one file at a time. The walker skips build output
// and the lint fixtures themselves (any directory named "testdata").
#pragma once

#include <string>
#include <vector>

#include "analysis/source.h"

namespace piggyweb::analysis {

// Lex `text` as the file at repo-relative `path` (which decides the
// rules' module policy) and run every rule over it, appending its
// findings to `out` unsorted; sort with diagnostic_less for report
// order.
void analyze_file(std::string path, std::string text,
                  std::vector<Diagnostic>& out);

struct AnalyzeOptions {
  // Repo root on disk; analyzed paths are reported relative to it.
  std::string root = ".";
  // Subtrees to scan, relative to root.
  std::vector<std::string> subdirs = {"src", "tools", "bench", "tests"};
};

struct AnalyzeResult {
  std::vector<Diagnostic> diagnostics;  // report order
  std::size_t files_scanned = 0;
  // Why the tree was not analyzed: no subdirectory to scan, one that is
  // not a directory or holds no .h/.cc file, a directory or file that
  // cannot be opened. Any entry means no findings are reported.
  std::vector<std::string> errors;
};

// Repo-relative paths of every analyzable file under options.subdirs,
// sorted. Skips directories named "testdata", ".git", ".claude", and
// any starting with "build". An empty subdirectory list, and a
// subdirectory that is missing, cannot be listed or holds no analyzable
// file, are reported into `errors`: a gate that scanned nothing does
// not pass.
std::vector<std::string> collect_tree(const AnalyzeOptions& options,
                                      std::vector<std::string>& errors);

// collect_tree, then analyze_file each file in turn; diagnostics sorted
// once at the end.
AnalyzeResult analyze_tree(const AnalyzeOptions& options);

}  // namespace piggyweb::analysis
