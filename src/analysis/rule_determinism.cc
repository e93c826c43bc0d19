// Determinism rules. The project's reproducibility contract: randomness
// flows only through explicitly seeded util::Rng, simulated time only
// through util::TimePoint, and hot-module tables are util::FlatMap so
// metric results cannot drift with container iteration order. (The obs
// layer is exempt — wall-clock durations there are declared
// non-deterministic metrics.)
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/rules.h"

namespace piggyweb::analysis {

namespace {

constexpr std::array<std::string_view, 4> kUnorderedNames = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

bool is_unordered_name(std::string_view text) {
  for (const auto name : kUnorderedNames) {
    if (text == name) return true;
  }
  return false;
}

// Identifiers that are findings anywhere they appear (types whose mere
// construction is nondeterministic).
bool banned_type(std::string_view text) {
  return text == "random_device" || text == "system_clock";
}

// Identifiers that are findings when called.
bool banned_call(std::string_view text) {
  return text == "rand" || text == "srand" || text == "rand_r" ||
         text == "drand48" || text == "time" || text == "clock" ||
         text == "gettimeofday" || text == "localtime" ||
         text == "gmtime";
}

// Raw memory-mapping syscalls: allowed only inside util::MmapFile (the
// os_calls_allowed() allowlist), so mapping lifetime stays RAII-managed
// in one audited place.
bool mmap_family_call(std::string_view text) {
  return text == "mmap" || text == "mmap64" || text == "munmap" ||
         text == "mremap" || text == "madvise" ||
         text == "posix_madvise" || text == "mprotect" ||
         text == "msync" || text == "mlock" || text == "munlock" ||
         text == "shm_open" || text == "shm_unlink";
}

// Skip a balanced <...> block starting at `i` (which must be '<');
// returns the index just past the closing '>'. Gives up at braces or
// semicolons so a stray comparison cannot swallow the file.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  std::size_t depth = 0;
  while (i < toks.size()) {
    if (toks[i].is_punct("<")) ++depth;
    if (toks[i].is_punct(">") && --depth == 0) return i + 1;
    if (toks[i].is_punct("{") || toks[i].is_punct(";")) return i;
    ++i;
  }
  return i;
}

// Names of variables declared with an unordered container type:
// `std::unordered_map<...> name` (members, locals, parameters).
std::vector<std::string_view> unordered_variable_names(
    const std::vector<Token>& toks) {
  std::vector<std::string_view> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !is_unordered_name(toks[i].text)) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= toks.size() || !toks[j].is_punct("<")) continue;
    j = skip_angles(toks, j);
    while (j < toks.size() &&
           (toks[j].is_punct("&") || toks[j].is_punct("*"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
        !is_cpp_keyword(toks[j].text)) {
      names.push_back(toks[j].text);
    }
  }
  return names;
}

bool contains_name(const std::vector<std::string_view>& names,
                   std::string_view text) {
  for (const auto name : names) {
    if (name == text) return true;
  }
  return false;
}

// A banned-call name directly preceded by a type name is a function
// declaration (`long time() const { ... }`), not a call: in expression
// context no plain identifier can appear immediately before the callee.
bool is_declaration_context(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (prev.kind != TokKind::kIdent) return false;
  if (!is_cpp_keyword(prev.text)) return true;  // e.g. `Duration time()`
  constexpr std::array<std::string_view, 12> kTypeKeywords = {
      "auto", "bool",  "char",   "const",    "double", "float",
      "int",  "long",  "short",  "signed",   "unsigned", "void"};
  for (const auto kw : kTypeKeywords) {
    if (prev.text == kw) return true;
  }
  return false;
}

std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].is_punct("(")) ++depth;
    if (toks[j].is_punct(")") && --depth == 0) return j;
  }
  return toks.size();
}

std::size_t match_brace(const std::vector<Token>& toks, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].is_punct("{")) ++depth;
    if (toks[j].is_punct("}") && --depth == 0) return j;
  }
  return toks.size();
}

// Does [begin, end) write into an ordered sink: push_back/emplace_back/
// append, a stream insertion (`<<`), or string append (`+=`)?
bool body_feeds_ordered_output(const std::vector<Token>& toks,
                               std::size_t begin, std::size_t end) {
  for (std::size_t j = begin; j < end; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kIdent &&
        (t.text == "push_back" || t.text == "emplace_back" ||
         t.text == "append")) {
      return true;
    }
    if (j + 1 < end && t.is_punct("<") && toks[j + 1].is_punct("<")) {
      return true;
    }
    if (j + 1 < end && t.is_punct("+") && toks[j + 1].is_punct("=")) {
      return true;
    }
  }
  return false;
}

}  // namespace

void check_determinism(const SourceFile& file, std::vector<Diagnostic>& out) {
  const auto& toks = file.tokens;
  const auto module = module_of(file.path);

  // (a) Banned nondeterministic APIs.
  if (!determinism_exempt(file.path)) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      const bool member_access =
          i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->"));
      if (banned_type(t.text) && !member_access) {
        out.push_back({file.path, t.line, "det-banned-call",
                       "nondeterministic API 'std::" + std::string(t.text) +
                           "' — seed explicitly through util::Rng "
                           "(allowed only in util/rng, util/time, obs)"});
        continue;
      }
      if (banned_call(t.text) && !member_access &&
          !is_declaration_context(toks, i) && i + 1 < toks.size() &&
          toks[i + 1].is_punct("(")) {
        out.push_back({file.path, t.line, "det-banned-call",
                       "wall-clock/global-state call '" +
                           std::string(t.text) +
                           "()' — use util::TimePoint simulation time or "
                           "util::Rng (allowed only in util/rng, "
                           "util/time, obs)"});
      }
    }
  }

  // (a2) Raw memory-mapping syscalls confined to util::MmapFile. Unlike
  // (a) this applies to every scanned file, tests and benches included:
  // there is no "cold module" story for a leaked mapping.
  if (!os_calls_allowed(file.path)) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || !mmap_family_call(t.text)) continue;
      const bool member_access =
          i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->"));
      // A '*' or '&' before the name is a declarator (`void* mmap(...)`):
      // no real call site multiplies by an mmap-family function.
      const bool declarator =
          i > 0 && (toks[i - 1].is_punct("*") || toks[i - 1].is_punct("&"));
      if (member_access || declarator || is_declaration_context(toks, i) ||
          !toks[i + 1].is_punct("(")) {
        continue;
      }
      out.push_back({file.path, t.line, "os-call-confined",
                     "raw '" + std::string(t.text) +
                         "()' — map files through util::MmapFile "
                         "(allowed only in src/util/mmap_file.{h,cc})"});
    }
  }

  // (b) unordered containers banned where FlatMap is mandated.
  if (flatmap_required(module)) {
    for (const Token& t : toks) {
      if (t.kind == TokKind::kIdent && is_unordered_name(t.text)) {
        out.push_back(
            {file.path, t.line, "det-unordered-container",
             "'std::" + std::string(t.text) + "' in hot module '" +
                 std::string(module) +
                 "' — use util::FlatMap (DESIGN.md §7); cold modules are "
                 "allowlisted by module in analysis/rules.cc"});
      }
    }
  }

  // (c) Iterating an unordered container into an ordered sink. Applies
  // to src/ and tools/ (tests and benches iterate reference
  // unordered_maps on purpose, in differential suites that sort).
  if (!file.path.starts_with("src/") && !file.path.starts_with("tools/")) {
    return;
  }
  const auto unordered_vars = unordered_variable_names(toks);
  if (unordered_vars.empty()) return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_ident("for") || !toks[i + 1].is_punct("(")) continue;
    const std::size_t close = match_paren(toks, i + 1);
    if (close >= toks.size()) break;
    // Find the range-for ':' at paren depth 1 (not '::').
    std::size_t colon = toks.size();
    std::size_t depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].is_punct("(") || toks[j].is_punct("[") ||
          toks[j].is_punct("{")) {
        ++depth;
      } else if (toks[j].is_punct(")") || toks[j].is_punct("]") ||
                 toks[j].is_punct("}")) {
        --depth;
      } else if (depth == 1 && toks[j].is_punct(":")) {
        colon = j;
        break;
      }
    }
    if (colon >= close) continue;
    bool iterates_unordered = false;
    std::string_view var;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          contains_name(unordered_vars, toks[j].text)) {
        iterates_unordered = true;
        var = toks[j].text;
        break;
      }
    }
    if (!iterates_unordered) continue;
    if (close + 1 >= toks.size() || !toks[close + 1].is_punct("{")) continue;
    const std::size_t body_close = match_brace(toks, close + 1);
    if (body_feeds_ordered_output(toks, close + 2, body_close)) {
      out.push_back(
          {file.path, toks[i].line, "det-unordered-iteration",
           "iterating unordered container '" + std::string(var) +
               "' into ordered output — iteration order is not part of "
               "the determinism contract; sort first or use FlatMap with "
               "a sorted copy"});
    }
  }
}

}  // namespace piggyweb::analysis
