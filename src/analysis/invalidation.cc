#include "analysis/invalidation.h"

#include <string>

#include "analysis/functions.h"
#include "analysis/lexer.h"

namespace piggyweb::analysis {

namespace {

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

struct Chain {
  std::vector<std::size_t> parts;  // token indices of the identifiers
  std::size_t end = 0;             // index just past the last identifier
};

// Parse `a.b->c` starting at token `i` (an identifier).
Chain parse_chain(const std::vector<Token>& toks, std::size_t i,
                  std::size_t limit) {
  Chain chain;
  chain.parts.push_back(i);
  std::size_t j = i + 1;
  while (j + 1 < limit &&
         (toks[j].is_punct(".") || toks[j].is_punct("->")) &&
         toks[j + 1].kind == TokKind::kIdent) {
    chain.parts.push_back(j + 1);
    j += 2;
  }
  chain.end = j;
  return chain;
}

std::string chain_text(const std::vector<Token>& toks, const Chain& chain,
                       std::size_t n_parts) {
  std::string out;
  for (std::size_t k = 0; k < n_parts; ++k) {
    if (k > 0) out += '.';
    out += toks[chain.parts[k]].text;
  }
  return out;
}

struct Binding {
  std::string_view name;
  std::string receiver;
  std::string_view method;
  std::size_t name_pos = 0;
  std::size_t rhs_end = 0;  // end of the initializing expression's call
  std::uint32_t line = 0;
};

struct Mutation {
  std::string receiver;
  std::string_view method;
  std::size_t start = 0;
  std::size_t end = 0;  // just past the call's closing ')' / ']'
  std::uint32_t line = 0;
};

// Declared-with-auto binding ending right before the '=' at `eq`:
//   auto it = ..., auto& v = ..., const auto* p = ..., auto [a, b] = ...
// Returns bound names (empty when the tokens before '=' are not a
// declaration) and whether the declaration takes a reference.
struct DeclInfo {
  std::vector<std::string_view> names;
  bool is_reference = false;
};

bool has_auto(const std::vector<Token>& toks, std::size_t begin,
              std::size_t end);

DeclInfo parse_decl(const std::vector<Token>& toks, std::size_t eq,
                    std::size_t begin) {
  DeclInfo decl;
  if (eq == 0) return decl;
  std::size_t j = eq - 1;
  if (toks[j].is_punct("]")) {  // structured binding
    std::vector<std::string_view> names;
    while (j > begin && !toks[j].is_punct("[")) {
      if (toks[j].kind == TokKind::kIdent) names.push_back(toks[j].text);
      --j;
    }
    if (j <= begin || !toks[j].is_punct("[")) return decl;
    if (j == begin || !has_auto(toks, begin, j)) return decl;
    decl.names = std::move(names);
    decl.is_reference = true;  // holds an iterator either way
    return decl;
  }
  if (toks[j].kind != TokKind::kIdent || is_cpp_keyword(toks[j].text)) {
    return decl;
  }
  const std::string_view name = toks[j].text;
  bool saw_auto = false;
  bool saw_ref = false;
  while (j > begin) {
    --j;
    const Token& t = toks[j];
    if (t.is_ident("auto")) saw_auto = true;
    if (t.is_punct("&") || t.is_punct("*")) saw_ref = true;
    if (t.is_ident("const")) continue;
    if (!t.is_ident("auto") && !t.is_punct("&") && !t.is_punct("*")) break;
  }
  if (!saw_auto) return decl;
  decl.names = {name};
  decl.is_reference = saw_ref;
  return decl;
}

bool has_auto(const std::vector<Token>& toks, std::size_t begin,
              std::size_t end) {
  for (std::size_t j = end; j-- > begin;) {
    if (toks[j].is_ident("auto")) return true;
    if (toks[j].is_punct(";") || toks[j].is_punct("{") ||
        toks[j].is_punct("}")) {
      return false;
    }
  }
  return false;
}

}  // namespace

void check_invalidation(const SourceFile& file,
                        const InvalidationConfig& config,
                        std::vector<Diagnostic>& out) {
  const auto& toks = file.tokens;

  // Names declared with a tracked type anywhere in the file. The
  // declared name follows the type name, its template arguments if any,
  // a closing '>' when the type sits inside a wrapper template
  // (`std::unique_ptr<TraceView> view`), and ref/pointer decorations.
  std::vector<std::string_view> tracked_names;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    bool is_type = false;
    for (const auto type_name : config.type_names) {
      if (toks[i].text == type_name) {
        is_type = true;
        break;
      }
    }
    if (!is_type) continue;
    std::size_t j = i + 1;
    if (toks[j].is_punct("<")) {
      std::size_t depth = 0;
      while (j < toks.size()) {
        if (toks[j].is_punct("<")) ++depth;
        if (toks[j].is_punct(">") && --depth == 0) {
          ++j;
          break;
        }
        if (toks[j].is_punct("{") || toks[j].is_punct(";")) break;
        ++j;
      }
    } else if (config.require_template_args) {
      continue;
    } else {
      while (j < toks.size() && toks[j].is_punct(">")) ++j;
    }
    while (j < toks.size() &&
           (toks[j].is_punct("&") || toks[j].is_punct("*"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
        !is_cpp_keyword(toks[j].text)) {
      tracked_names.push_back(toks[j].text);
    }
  }
  if (tracked_names.empty()) return;
  const auto is_tracked_name = [&](std::string_view text) {
    for (const auto name : tracked_names) {
      if (name == text) return true;
    }
    return false;
  };

  for (const FunctionDef& fn : scan_functions(file)) {
    std::vector<Binding> bindings;
    std::vector<Mutation> mutations;
    // Plain re-assignments `name = recv.accessor(...)`: the old value of
    // `name` is dead from here on (and a fresh binding starts), so later
    // uses of the name are the re-fetched value, not the stale one.
    struct Kill {
      std::string_view name;
      std::size_t pos = 0;  // token index of the assigned name
    };
    std::vector<Kill> kills;

    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      if (i > fn.body_begin && (toks[i - 1].is_punct(".") ||
                                toks[i - 1].is_punct("->"))) {
        continue;  // chain continuation, already handled
      }
      const Chain chain = parse_chain(toks, i, fn.body_end);

      // Range-for over a tracked object: `for (... : chain)` — the
      // iterated object's name is the chain's last identifier.
      if (config.check_range_for && toks[i].is_ident("for") &&
          i + 1 < fn.body_end && toks[i + 1].is_punct("(")) {
        const std::size_t close =
            match_punct(toks, i + 1, "(", ")", fn.body_end);
        std::size_t colon = close;
        std::size_t depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          if (toks[j].is_punct("(") || toks[j].is_punct("[")) ++depth;
          if (toks[j].is_punct(")") || toks[j].is_punct("]")) --depth;
          if (depth == 1 && toks[j].is_punct(":")) {
            colon = j;
            break;
          }
        }
        if (colon < close && colon + 1 < close &&
            toks[colon + 1].kind == TokKind::kIdent) {
          const Chain range = parse_chain(toks, colon + 1, close);
          if (is_tracked_name(toks[range.parts.back()].text) &&
              close + 1 < fn.body_end && toks[close + 1].is_punct("{")) {
            const std::string key =
                chain_text(toks, range, range.parts.size());
            const std::size_t body_close =
                match_punct(toks, close + 1, "{", "}", fn.body_end);
            for (std::size_t j = close + 2; j < body_close; ++j) {
              if (toks[j].kind != TokKind::kIdent) continue;
              if (j > 0 && (toks[j - 1].is_punct(".") ||
                            toks[j - 1].is_punct("->"))) {
                continue;
              }
              const Chain inner = parse_chain(toks, j, body_close);
              if (inner.parts.size() < 2) continue;
              const std::string_view method =
                  toks[inner.parts.back()].text;
              if (!config.mutating(method)) continue;
              if (chain_text(toks, inner, inner.parts.size() - 1) != key) {
                continue;
              }
              if (inner.end >= body_close ||
                  !toks[inner.end].is_punct("(")) {
                continue;
              }
              out.push_back(
                  {file.path, toks[j].line, std::string(config.rule),
                   "'" + key + "." + std::string(method) +
                       "' inside a range-for over '" + key + "' — " +
                       std::string(config.range_for_text)});
            }
          }
        }
        i = close;
        continue;
      }

      if (chain.parts.size() < 2) continue;
      const std::string_view last = toks[chain.parts.back()].text;
      const std::string_view recv_part =
          toks[chain.parts[chain.parts.size() - 2]].text;

      // Method call on a tracked object: receiver is the chain minus
      // the method name.
      if (is_tracked_name(recv_part) && chain.end < fn.body_end &&
          toks[chain.end].is_punct("(")) {
        const std::string receiver =
            chain_text(toks, chain, chain.parts.size() - 1);
        const std::size_t call_close =
            match_punct(toks, chain.end, "(", ")", fn.body_end);
        if (config.mutating(last)) {
          mutations.push_back({receiver, last, i, call_close + 1,
                               toks[i].line});
        }
        if (config.accessor(last) && i > fn.body_begin &&
            toks[i - 1].is_punct("=")) {
          DeclInfo decl = parse_decl(toks, i - 1, fn.body_begin);
          const bool by_value_binds =
              config.reference_only == nullptr ||
              !config.reference_only(last);
          if (decl.names.empty() && i >= 2 &&
              toks[i - 2].kind == TokKind::kIdent &&
              !is_cpp_keyword(toks[i - 2].text) &&
              (i - 2 == fn.body_begin || toks[i - 3].is_punct(";") ||
               toks[i - 3].is_punct("{") || toks[i - 3].is_punct("}"))) {
            // Re-fetch into an existing variable: `name = recv.acc(...)`.
            kills.push_back({toks[i - 2].text, i - 2});
            if (by_value_binds) {
              bindings.push_back({toks[i - 2].text, receiver, last, i,
                                  call_close + 1, toks[i].line});
            }
          }
          const bool binds =
              !decl.names.empty() && (decl.is_reference || by_value_binds);
          if (binds) {
            for (const auto name : decl.names) {
              bindings.push_back({name, receiver, last, i,
                                  call_close + 1, toks[i].line});
            }
          }
        }
        i = chain.end;
        continue;
      }

      // operator[] on a tracked object: a mutation (FlatMap may rehash)
      // and, with `auto& v = m[k]`, a reference binding.
      if (config.subscript_mutates && is_tracked_name(last) &&
          chain.end < fn.body_end && toks[chain.end].is_punct("[")) {
        const std::string receiver =
            chain_text(toks, chain, chain.parts.size());
        const std::size_t close =
            match_punct(toks, chain.end, "[", "]", fn.body_end);
        mutations.push_back(
            {receiver, "operator[]", i, close + 1, toks[i].line});
        if (i > fn.body_begin && toks[i - 1].is_punct("=")) {
          DeclInfo decl = parse_decl(toks, i - 1, fn.body_begin);
          if (!decl.names.empty() && decl.is_reference) {
            for (const auto name : decl.names) {
              bindings.push_back({name, receiver, "operator[]", i,
                                  close + 1, toks[i].line});
            }
          }
        }
        i = chain.end;
      }
    }

    // A binding is dead once its receiver is mutated again; any later
    // use of the bound name is a finding.
    for (const Binding& b : bindings) {
      for (const Mutation& m : mutations) {
        if (m.receiver != b.receiver) continue;
        if (m.start <= b.rhs_end) continue;  // the originating call itself
        // Superseded before the mutation took effect: every later use of
        // the name sees the re-fetched value.
        bool rebound = false;
        for (const Kill& k : kills) {
          if (k.name == b.name && k.pos > b.name_pos && k.pos < m.end) {
            rebound = true;
            break;
          }
        }
        if (rebound) break;
        const auto is_kill_at = [&](std::size_t pos) {
          for (const Kill& k : kills) {
            if (k.pos == pos) return true;
          }
          return false;
        };
        for (std::size_t u = m.end; u < fn.body_end; ++u) {
          if (toks[u].kind != TokKind::kIdent || toks[u].text != b.name) {
            continue;
          }
          if (is_kill_at(u)) break;  // rebound: the stale value is gone
          out.push_back(
              {file.path, toks[u].line, std::string(config.rule),
               std::string("'").append(b.name) + "' (from '" + b.receiver +
                   "." + std::string(b.method) + "', line " +
                   std::to_string(b.line) + ") used after mutating '" +
                   m.receiver + "." + std::string(m.method) +
                   "' on line " + std::to_string(m.line) + " — " +
                   std::string(config.use_after_text)});
          break;  // one finding per binding/mutation pair
        }
        break;  // report against the first invalidating mutation only
      }
    }
  }
}

}  // namespace piggyweb::analysis
