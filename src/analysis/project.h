// The set of sources under analysis, plus the cross-file facts rules
// need: include resolution within the project tree and the (transitive)
// symbols a project header provides, used by the unused-include check.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/source.h"

namespace piggyweb::analysis {

struct IncludeRef {
  std::string_view spec;  // `"util/expect.h"` or `<vector>`, quotes kept
  std::uint32_t line = 0;
};

// All #include directives of a file, in order.
std::vector<IncludeRef> includes_of(const SourceFile& file);

class Project {
 public:
  Project() = default;
  Project(const Project&) = delete;
  Project& operator=(const Project&) = delete;

  // Lex and register a file under its repo-relative path.
  SourceFile& add_file(std::string path, std::string text);

  const SourceFile* find(std::string_view path) const;
  const std::vector<std::unique_ptr<SourceFile>>& files() const {
    return files_;
  }

  // Resolve a quoted include spec from `from` to a project path, or ""
  // if the target is not part of the analyzed set. Tries the src/ root
  // (the project convention), then the includer's directory.
  std::string resolve_include(const SourceFile& from,
                              std::string_view target) const;

  // Symbols the project header at `path` provides, including symbols of
  // project headers it includes (transitively; cycle-safe). Returns
  // nullptr when `path` is not in the project.
  const std::set<std::string_view>* provided_symbols(
      std::string_view path) const;

  // Run every rule over every file; diagnostics in report order.
  std::vector<Diagnostic> analyze() const;

 private:
  void collect_own_symbols(const SourceFile& file,
                           std::set<std::string_view>& out) const;

  std::vector<std::unique_ptr<SourceFile>> files_;
  std::map<std::string, SourceFile*, std::less<>> by_path_;
  mutable std::map<std::string, std::set<std::string_view>, std::less<>>
      provided_cache_;
};

}  // namespace piggyweb::analysis
