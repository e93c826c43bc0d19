// Heuristic function-definition scanner shared by the contract-coverage,
// flat-map-safety and view-invalidation rules. It walks a token stream
// with an explicit scope stack (namespace / class / enum / other braces),
// recognizes function definitions at namespace or class scope — including
// out-of-line `Type Class::name(...)` definitions and constructors with
// member-init lists — and records the token range of each body. Bodies
// are not recursed into, so lambdas and local classes never produce
// nested entries.
//
// This is a lint heuristic, not a parser: pathological macro tricks can
// hide functions from it. The fixture suite pins the constructs that
// appear in this codebase.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/source.h"

namespace piggyweb::analysis {

struct ParamInfo {
  std::string_view name;  // empty for unnamed parameters
};

struct FunctionDef {
  std::string_view name;
  std::uint32_t line = 0;          // line of the name token
  std::vector<ParamInfo> params;
  std::size_t body_begin = 0;      // first token index inside the body
  std::size_t body_end = 0;        // index of the closing '}' token
  bool at_class_scope = false;
  bool is_public = true;  // every enclosing class section is public
  // Enclosing class names, outermost first: lexical class scopes plus
  // the `Class::` qualifiers of an out-of-line definition. Empty for
  // free functions.
  std::vector<std::string_view> classes;
};

// All function definitions (bodies only; pure declarations are skipped).
std::vector<FunctionDef> scan_functions(const SourceFile& file);

}  // namespace piggyweb::analysis
