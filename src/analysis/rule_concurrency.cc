// Lock discipline (lock-guarded-state, atomic-plain-mix).
//
// Classes opt in by annotating members with PW_GUARDED_BY(mutex) — the
// no-op macro from util/expect.h. Per function body, a flow walk
// tracks which mutexes are held at every token:
//
//   * RAII guards: std::lock_guard / scoped_lock / unique_lock /
//     shared_lock declarations acquire their argument mutexes for the
//     rest of the enclosing brace scope (std::defer_lock defers until
//     an explicit .lock(); try_to_lock/adopt_lock count as held);
//   * guard.unlock() / guard.release() drop the guard's mutexes early,
//     plain mutex.lock()/.unlock() acquire/drop the receiver.
//
// lock-guarded-state then flags any access to an annotated member
// without its mutex held. Accesses are receiver-sensitive: an
// unqualified (or this->) access checks against annotations of the
// function's own innermost class; a `recv.member` access checks
// annotations of nested/enclosed classes (Tracer methods touching
// `buffer.events` must hold `buffer.mutex`). Constructors and
// destructors are exempt — no concurrent access can exist yet/anymore.
//
// atomic-plain-mix piggybacks on the same walk: within a class that
// carries at least one PW_GUARDED_BY, a plain (non-atomic, non-const,
// unannotated) member that is written under a lock and also accessed
// with no lock held is flagged — it is racing and should be an atomic,
// be annotated, or have the unlocked access moved under the mutex.
//
// Annotations are gathered across the analyzed file's transitive
// project includes, so out-of-line .cc definitions see their header's
// annotations. Both rules are heuristic and flow-insensitive across
// calls; DESIGN.md §14 records the model and its limits.
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/functions.h"
#include "analysis/lexer.h"
#include "analysis/rules.h"

namespace piggyweb::analysis {

namespace {

bool guard_type(std::string_view t) {
  return t == "lock_guard" || t == "scoped_lock" || t == "unique_lock" ||
         t == "shared_lock";
}

std::size_t match_punct(const std::vector<Token>& toks, std::size_t open,
                        std::string_view opener, std::string_view closer,
                        std::size_t limit) {
  std::size_t depth = 0;
  for (std::size_t j = open; j < limit; ++j) {
    if (toks[j].is_punct(opener)) ++depth;
    if (toks[j].is_punct(closer) && --depth == 0) return j;
  }
  return limit;
}

// Token texts of [begin, end) concatenated, '->' folded to '.'.
std::string normalize_range(const std::vector<Token>& toks,
                            std::size_t begin, std::size_t end) {
  std::string out;
  for (std::size_t j = begin; j < end; ++j) {
    if (toks[j].is_punct("->")) {
      out += '.';
    } else {
      out += toks[j].text;
    }
  }
  return out;
}

// Top-level comma split of normalized argument text.
std::vector<std::string> split_args(const std::vector<Token>& toks,
                                    std::size_t open, std::size_t close) {
  std::vector<std::string> args;
  std::size_t piece = open + 1;
  std::size_t depth = 0;
  for (std::size_t j = open + 1; j <= close; ++j) {
    const Token& t = toks[j];
    const bool at_end = j == close;
    if (!at_end) {
      if (t.is_punct("(") || t.is_punct("<") || t.is_punct("[") ||
          t.is_punct("{")) {
        ++depth;
        continue;
      }
      if (t.is_punct(")") || t.is_punct(">") || t.is_punct("]") ||
          t.is_punct("}")) {
        if (depth > 0) --depth;
        continue;
      }
    }
    if (at_end || (depth == 0 && t.is_punct(","))) {
      if (j > piece) args.push_back(normalize_range(toks, piece, j));
      piece = j + 1;
    }
  }
  return args;
}

// Reconstruct the simple postfix receiver ending just before the '.' or
// '->' at `dot`: chains of identifiers, '::'/'.'/'->' separators, and
// balanced subscripts ('stripes_[i]', 'table.rings_[k]'). Returns ""
// for anything else (call results, parenthesized expressions) — the
// check then conservatively skips the access.
std::string receiver_before(const std::vector<Token>& toks, std::size_t dot,
                            std::size_t begin) {
  std::size_t start = dot;
  while (start > begin) {
    const Token& p = toks[start - 1];
    if (p.is_punct("]")) {
      std::size_t depth = 0;
      std::size_t k = start - 1;
      while (true) {
        if (toks[k].is_punct("]")) ++depth;
        if (toks[k].is_punct("[") && --depth == 0) break;
        if (k == begin) return {};
        --k;
      }
      if (k == begin) return {};
      start = k;
      continue;  // an identifier should precede the '['
    }
    if (p.kind == TokKind::kIdent && !is_cpp_keyword(p.text)) {
      --start;
      if (start > begin && (toks[start - 1].is_punct(".") ||
                            toks[start - 1].is_punct("->") ||
                            toks[start - 1].is_punct("::"))) {
        --start;
        continue;
      }
      break;
    }
    if (p.is_ident("this")) {
      --start;
      break;
    }
    return {};
  }
  return normalize_range(toks, start, dot);
}

// A guarded-member annotation, flattened for lookup by member name.
struct GuardedFact {
  std::vector<std::string_view> classes;
  std::string_view member;
  std::string mutex;
};

// Guarded-member annotations across the analyzed file's transitive
// project includes.
std::vector<GuardedFact> gather_guarded(const Project& project,
                                        const SourceFile& file) {
  std::vector<GuardedFact> guarded;
  for (const std::string& path : project.include_closure(file)) {
    const SourceFile* f = project.find(path);
    if (f == nullptr) continue;
    for (const GuardedMemberDecl& g : project.scan_of(*f).guarded_members) {
      guarded.push_back({g.classes, g.member, g.mutex});
    }
  }
  return guarded;
}

// One acquired lock. `guard` is the RAII variable's name (empty for a
// bare mutex.lock()); `depth` the brace depth of the acquisition;
// inactive locks were declared with std::defer_lock and wait for
// guard.lock().
struct HeldLock {
  std::string mutex;
  std::string guard;
  int depth = 0;
  bool active = true;
};

// An access to a plain member of an annotated class, for the
// atomic-plain-mix aggregation.
struct PlainAccess {
  bool locked = false;
  bool write = false;
  std::uint32_t line = 0;
};

bool is_write_access(const std::vector<Token>& toks, std::size_t i,
                     std::size_t begin, std::size_t end) {
  if (i + 1 < end && toks[i + 1].is_punct("=") &&
      (i + 2 >= end || !toks[i + 2].is_punct("="))) {
    return true;  // m = x (not m == x)
  }
  if (i + 2 < end && toks[i + 2].is_punct("=") &&
      (toks[i + 1].is_punct("+") || toks[i + 1].is_punct("-") ||
       toks[i + 1].is_punct("*") || toks[i + 1].is_punct("/") ||
       toks[i + 1].is_punct("%") || toks[i + 1].is_punct("|") ||
       toks[i + 1].is_punct("&") || toks[i + 1].is_punct("^"))) {
    return true;  // m += x and friends
  }
  if (i + 2 < end &&
      ((toks[i + 1].is_punct("+") && toks[i + 2].is_punct("+")) ||
       (toks[i + 1].is_punct("-") && toks[i + 2].is_punct("-")))) {
    return true;  // m++
  }
  if (i >= begin + 2 &&
      ((toks[i - 1].is_punct("+") && toks[i - 2].is_punct("+")) ||
       (toks[i - 1].is_punct("-") && toks[i - 2].is_punct("-")))) {
    return true;  // ++m
  }
  return false;
}

}  // namespace

void check_concurrency(const Project& project, const SourceFile& file,
                       std::vector<Diagnostic>& out) {
  if (!file.path.starts_with("src/") && !file.path.starts_with("tools/") &&
      !file.path.starts_with("bench/")) {
    return;
  }
  const std::vector<GuardedFact> guarded = gather_guarded(project, file);
  if (guarded.empty()) return;
  const auto& toks = file.tokens;
  const ScanResult& scan = project.scan_of(file);

  // Classes (by full path) that directly carry an annotation: only
  // their plain members participate in atomic-plain-mix.
  const auto annotating_class = [&](const std::vector<std::string_view>&
                                        classes) {
    for (const GuardedFact& g : guarded) {
      if (g.classes == classes) return true;
    }
    return false;
  };
  const auto member_annotated = [&](const std::vector<std::string_view>&
                                        classes,
                                    std::string_view name) {
    for (const GuardedFact& g : guarded) {
      if (g.member == name && g.classes == classes) return true;
    }
    return false;
  };

  // (class path text, member) -> accesses, aggregated across the file.
  std::map<std::pair<std::string, std::string_view>,
           std::vector<PlainAccess>>
      plain_accesses;

  for (const FunctionDef& fn : scan.functions) {
    const std::string_view fn_class =
        fn.classes.empty() ? std::string_view{} : fn.classes.back();
    const bool ctor_or_dtor = !fn.classes.empty() && fn.name == fn_class;

    std::vector<HeldLock> held;

    const auto any_held = [&] {
      for (const HeldLock& l : held) {
        if (l.active) return true;
      }
      return false;
    };
    const auto mutex_held = [&](const std::string& mutex) {
      for (const HeldLock& l : held) {
        if (l.active && l.mutex == mutex) return true;
      }
      return false;
    };

    int depth = 0;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.is_punct("{")) {
        ++depth;
        continue;
      }
      if (t.is_punct("}")) {
        --depth;
        std::erase_if(held,
                      [&](const HeldLock& l) { return l.depth > depth; });
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;

      // RAII guard declaration: guard_type [<...>] name (args) | {args}.
      if (guard_type(t.text)) {
        std::size_t j = i + 1;
        if (j < fn.body_end && toks[j].is_punct("<")) {
          std::size_t d = 0;
          while (j < fn.body_end) {
            if (toks[j].is_punct("<")) ++d;
            if (toks[j].is_punct(">") && --d == 0) {
              ++j;
              break;
            }
            if (toks[j].is_punct(";") || toks[j].is_punct("{")) break;
            ++j;
          }
        }
        if (j < fn.body_end && toks[j].kind == TokKind::kIdent &&
            !is_cpp_keyword(toks[j].text) && j + 1 < fn.body_end &&
            (toks[j + 1].is_punct("(") || toks[j + 1].is_punct("{"))) {
          const std::string guard_name(toks[j].text);
          const bool paren = toks[j + 1].is_punct("(");
          const std::size_t close =
              match_punct(toks, j + 1, paren ? "(" : "{",
                          paren ? ")" : "}", fn.body_end);
          bool deferred = false;
          std::vector<std::string> mutexes;
          for (std::string& arg : split_args(toks, j + 1, close)) {
            if (arg.find("defer_lock") != std::string::npos) {
              deferred = true;
            } else if (arg.find("adopt_lock") == std::string::npos &&
                       arg.find("try_to_lock") == std::string::npos) {
              mutexes.push_back(std::move(arg));
            }
          }
          for (std::string& m : mutexes) {
            held.push_back({std::move(m), guard_name, depth, !deferred});
          }
          i = close;
          continue;
        }
      }

      // guard/mutex method calls: .lock() / .unlock() / .release().
      if ((t.text == "lock" || t.text == "unlock" ||
           t.text == "release") &&
          i > fn.body_begin &&
          (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->")) &&
          i + 1 < fn.body_end && toks[i + 1].is_punct("(")) {
        const std::string recv = receiver_before(toks, i - 1, fn.body_begin);
        if (!recv.empty()) {
          bool matched_guard = false;
          for (HeldLock& l : held) {
            if (!l.guard.empty() && l.guard == recv) {
              l.active = t.text == "lock";
              matched_guard = true;
            }
          }
          if (!matched_guard) {
            if (t.text == "lock") {
              held.push_back({recv, "", depth, true});
            } else {
              std::erase_if(held, [&](const HeldLock& l) {
                return l.guard.empty() && l.mutex == recv;
              });
            }
          }
        }
        i = match_punct(toks, i + 1, "(", ")", fn.body_end);
        continue;
      }

      // Guarded-member access?
      std::string receiver;  // empty: unqualified or this->
      bool qualified = false;
      if (i > fn.body_begin &&
          (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->"))) {
        receiver = receiver_before(toks, i - 1, fn.body_begin);
        if (receiver.empty()) continue;  // call result etc. — skip
        if (receiver == "this") {
          receiver.clear();
        } else {
          qualified = true;
        }
      } else if (i > fn.body_begin && toks[i - 1].is_punct("::")) {
        continue;  // qualified name, not a member access
      }

      const GuardedFact* fact = nullptr;
      for (const GuardedFact& g : guarded) {
        if (g.member != t.text) continue;
        if (!qualified) {
          if (!fn.classes.empty() && fn_class == g.classes.back()) {
            fact = &g;
            break;
          }
        } else {
          if (fn.classes.empty()) continue;
          bool related = fn_class == g.classes.back();
          for (const std::string_view c : g.classes) {
            if (fn_class == c) related = true;
          }
          if (related) {
            fact = &g;
            break;
          }
        }
      }
      if (fact != nullptr) {
        if (!ctor_or_dtor) {
          const std::string required =
              qualified ? receiver + "." + fact->mutex : fact->mutex;
          if (!mutex_held(required)) {
            out.push_back(
                {file.path, t.line, "lock-guarded-state",
                 "'" + std::string(t.text) + "' is guarded by '" +
                     required +
                     "' (PW_GUARDED_BY) but accessed without holding it "
                     "— take a lock_guard/scoped_lock"});
          }
        }
        continue;
      }

      // Plain-member access of an annotating class (atomic-plain-mix).
      if (!qualified && !fn.classes.empty() && !ctor_or_dtor) {
        for (const MemberDecl& m : scan.members) {
          if (m.name != t.text) continue;
          if (m.type_exempt) continue;
          if (m.classes.empty() || m.classes.back() != fn_class) continue;
          if (!annotating_class(m.classes)) continue;
          if (member_annotated(m.classes, m.name)) continue;
          std::string class_key;
          for (const std::string_view c : m.classes) {
            if (!class_key.empty()) class_key += "::";
            class_key += c;
          }
          plain_accesses[{std::move(class_key), m.name}].push_back(
              {any_held(),
               is_write_access(toks, i, fn.body_begin, fn.body_end),
               t.line});
          break;
        }
      }
    }
  }

  for (const auto& [key, accesses] : plain_accesses) {
    std::uint32_t locked_write_line = 0;
    const PlainAccess* unlocked = nullptr;
    for (const PlainAccess& a : accesses) {
      if (a.locked && a.write && locked_write_line == 0) {
        locked_write_line = a.line;
      }
      if (!a.locked && unlocked == nullptr) unlocked = &a;
    }
    if (locked_write_line != 0 && unlocked != nullptr) {
      out.push_back(
          {file.path, unlocked->line, "atomic-plain-mix",
           "'" + std::string(key.second) + "' of '" + key.first +
               "' is written under a lock (line " +
               std::to_string(locked_write_line) +
               ") but accessed here with no lock held — make it a "
               "std::atomic, annotate it PW_GUARDED_BY, or move this "
               "access under the mutex"});
    }
  }
}

}  // namespace piggyweb::analysis
