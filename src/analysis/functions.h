// Heuristic function-definition scanner behind the flat-map-safety and
// view-invalidation rules. It walks a token stream with an explicit
// scope stack (namespace / class / enum / other braces), recognizes
// function definitions at namespace or class scope — including
// out-of-line `Type Class::name(...)` definitions and constructors with
// member-init lists — and records the name and the token range of each
// body. Bodies are not recursed into, so lambdas and local classes never
// produce nested entries.
//
// This is a lint heuristic, not a parser: pathological macro tricks can
// hide functions from it. The fixture suite pins the constructs that
// appear in this codebase.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/source.h"

namespace piggyweb::analysis {

struct FunctionDef {
  std::string_view name;
  std::uint32_t line = 0;      // line of the name token
  std::size_t body_begin = 0;  // first token index inside the body
  std::size_t body_end = 0;    // index of the closing '}' token
};

// All function definitions (bodies only; pure declarations are skipped).
std::vector<FunctionDef> scan_functions(const SourceFile& file);

}  // namespace piggyweb::analysis
