#include "analysis/engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/lexer.h"
#include "analysis/rules.h"

namespace piggyweb::analysis {

namespace fs = std::filesystem;

namespace {

bool skip_directory(const std::string& name) {
  return name == ".git" || name == ".claude" || name == "testdata" ||
         name.starts_with("build");
}

bool analyzable(const std::string& name) {
  return name.ends_with(".h") || name.ends_with(".cc");
}

void walk(const fs::path& dir, const fs::path& root,
          std::vector<std::string>& out, std::vector<std::string>& errors) {
  std::error_code ec;
  fs::directory_iterator entries(dir, ec);
  if (ec) {
    errors.push_back("cannot list " + dir.generic_string() + ": " +
                     ec.message());
    return;
  }
  for (const auto& entry : entries) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory()) {
      if (!skip_directory(name)) walk(entry.path(), root, out, errors);
      continue;
    }
    if (!entry.is_regular_file() || !analyzable(name)) continue;
    out.push_back(entry.path().lexically_relative(root).generic_string());
  }
}

}  // namespace

void analyze_file(std::string path, std::string text,
                  std::vector<Diagnostic>& out) {
  // Tokens view into file.text, so the file stays put while rules run.
  SourceFile file;
  file.path = std::move(path);
  file.text = std::move(text);
  file.tokens = lex(file.text);
  check_determinism(file, out);
  check_flatmap_safety(file, out);
  check_view_invalidation(file, out);
}

std::vector<std::string> collect_tree(const AnalyzeOptions& options,
                                      std::vector<std::string>& errors) {
  std::vector<std::string> out;
  if (options.subdirs.empty()) {
    errors.push_back("no subdirectory to scan");
    return out;
  }
  const fs::path root(options.root);
  for (const auto& sub : options.subdirs) {
    const fs::path dir = root / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      errors.push_back(dir.generic_string() + ": not a directory");
      continue;
    }
    const std::size_t found_before = out.size();
    walk(dir, root, out, errors);
    if (out.size() == found_before) {
      errors.push_back(dir.generic_string() + ": no .h or .cc file to scan");
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

AnalyzeResult analyze_tree(const AnalyzeOptions& options) {
  AnalyzeResult result;
  const std::vector<std::string> paths = collect_tree(options, result.errors);
  if (!result.errors.empty()) return result;
  const fs::path root(options.root);
  for (const auto& rel : paths) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) {
      result = {};
      result.errors.push_back("cannot read " + (root / rel).generic_string());
      return result;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    analyze_file(rel, std::move(buf).str(), result.diagnostics);
    ++result.files_scanned;
  }
  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            diagnostic_less);
  return result;
}

}  // namespace piggyweb::analysis
