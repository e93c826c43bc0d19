// A lexed project source file plus the path/module classification the
// rule set keys on. Paths are repo-relative with '/' separators
// ("src/sim/engine.h", "tests/util_rng_test.cc"); the module of a file
// under src/ is its subsystem directory ("src/sim"), and the top-level
// directory otherwise ("tests", "bench", "tools").
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/token.h"

namespace piggyweb::analysis {

struct SourceFile {
  std::string path;           // repo-relative
  std::string text;           // owned; tokens view into it
  std::vector<Token> tokens;
};

struct Diagnostic {
  std::string file;
  std::uint32_t line = 0;
  std::string rule;
  std::string message;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

// "file:line: [rule-id] message" — the machine-readable text form.
std::string format_diagnostic(const Diagnostic& d);

// Stable report order: by file, then line, then rule, then message.
bool diagnostic_less(const Diagnostic& a, const Diagnostic& b);

// Module of a repo-relative path: "src/<subsystem>" for files under
// src/, else the first path component.
std::string_view module_of(std::string_view path);

}  // namespace piggyweb::analysis
