// Flat-map safety. util::FlatMap invalidates every reference and
// iterator on any mutation (rehash on insert, backward-shift on erase),
// unlike std::unordered_map, and so does util::GenerationalMap, which
// holds two of them (touch moves a key between them, rotate drops one).
// This rule flags, within one function body:
//
//   * a reference/iterator obtained from either map and used after a
//     later mutating call on the same map expression;
//   * a mutating call on a map inside a range-for over that map.
//
// The tracking itself lives in the shared invalidation core
// (invalidation.h); this file only supplies the method tables.
#include <string_view>
#include <vector>

#include "analysis/invalidation.h"
#include "analysis/rules.h"

namespace piggyweb::analysis {

namespace {

bool mutating_method(std::string_view m) {
  return m == "insert" || m == "emplace" || m == "try_emplace" ||
         m == "erase" || m == "clear" || m == "reserve" || m == "touch" ||
         m == "rotate";
}

bool accessor_method(std::string_view m) {
  return m == "find" || m == "at" || m == "insert" || m == "emplace" ||
         m == "try_emplace" || m == "touch";
}

// Methods whose plain-copy result is safe to keep (`auto v = m.at(k)`):
// binding them requires an explicit '&' in the declaration.
bool reference_only_method(std::string_view m) { return m == "at"; }

}  // namespace

void check_flatmap_safety(const SourceFile& file,
                          std::vector<Diagnostic>& out) {
  if (!file.path.starts_with("src/") && !file.path.starts_with("tools/") &&
      !file.path.starts_with("bench/")) {
    return;
  }
  InvalidationConfig config;
  config.rule = "flatmap-ref-after-mutate";
  config.type_names = {"FlatMap", "GenerationalMap"};
  config.require_template_args = true;
  config.subscript_mutates = true;
  config.check_range_for = true;
  config.mutating = mutating_method;
  config.accessor = accessor_method;
  config.reference_only = reference_only_method;
  config.use_after_text =
      "FlatMap mutation invalidates references and iterators";
  config.range_for_text = "FlatMap mutation invalidates the loop iterators";
  check_invalidation(file, config, out);
}

}  // namespace piggyweb::analysis
