#include "analysis/functions.h"

#include "analysis/lexer.h"

namespace piggyweb::analysis {

namespace {

enum class ScopeKind { kNamespace, kClass, kEnum, kOther };

class Scanner {
 public:
  explicit Scanner(const SourceFile& file) : toks_(file.tokens) {}

  std::vector<FunctionDef> run() {
    while (i_ < toks_.size()) {
      const Token& t = toks_[i_];
      if (t.is_punct("#")) {
        skip_directive();
      } else if (t.is_punct("{")) {
        scopes_.push_back(ScopeKind::kOther);
        ++i_;
      } else if (t.is_punct("}")) {
        if (!scopes_.empty()) scopes_.pop_back();
        ++i_;
      } else if (t.kind != TokKind::kIdent) {
        ++i_;
      } else if (t.text == "namespace") {
        enter_namespace();
      } else if (t.text == "class" || t.text == "struct" ||
                 t.text == "union") {
        enter_class();
      } else if (t.text == "enum") {
        enter_enum();
      } else if (t.text == "template") {
        ++i_;
        skip_angles();
      } else if (t.text == "using" || t.text == "typedef") {
        skip_to_semicolon();
      } else if (t.text.starts_with("PW_") && peek_punct(i_ + 1, "(")) {
        skip_macro_call();
      } else if (in_code_scope() && peek_punct(i_ + 1, "(") &&
                 !is_cpp_keyword(t.text)) {
        try_function();
      } else {
        ++i_;
      }
    }
    return std::move(out_);
  }

 private:
  bool in_code_scope() const {
    return scopes_.empty() || scopes_.back() == ScopeKind::kNamespace ||
           scopes_.back() == ScopeKind::kClass;
  }

  bool peek_punct(std::size_t idx, std::string_view text) const {
    return idx < toks_.size() && toks_[idx].is_punct(text);
  }

  // Skip the rest of a preprocessor directive (same physical line; a
  // backslash-spliced continuation advances the line and ends the skip,
  // which is safe because macro bodies here are brace-balanced).
  void skip_directive() {
    const std::uint32_t line = toks_[i_].line;
    ++i_;
    while (i_ < toks_.size() && toks_[i_].line == line) ++i_;
  }

  void skip_to_semicolon() {
    std::size_t depth = 0;
    while (i_ < toks_.size()) {
      const Token& t = toks_[i_];
      if (t.is_punct("{") || t.is_punct("(")) ++depth;
      if (t.is_punct("}") || t.is_punct(")")) {
        if (depth == 0) return;  // stray closer: leave it to the main loop
        --depth;
      }
      if (depth == 0 && t.is_punct(";")) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  // `template` already consumed; skip a balanced <...> block if present.
  void skip_angles() {
    if (!peek_punct(i_, "<")) return;
    std::size_t depth = 0;
    while (i_ < toks_.size()) {
      const Token& t = toks_[i_];
      if (t.is_punct("<")) ++depth;
      if (t.is_punct(">")) {
        if (--depth == 0) {
          ++i_;
          return;
        }
      }
      // Bail out rather than swallow scopes on a stray '<'.
      if (t.is_punct("{") || t.is_punct(";")) return;
      ++i_;
    }
  }

  void enter_namespace() {
    ++i_;
    while (i_ < toks_.size() && !toks_[i_].is_punct("{") &&
           !toks_[i_].is_punct(";")) {
      ++i_;
    }
    if (i_ < toks_.size() && toks_[i_].is_punct("{")) {
      scopes_.push_back(ScopeKind::kNamespace);
      ++i_;
    } else if (i_ < toks_.size()) {
      ++i_;  // namespace alias
    }
  }

  // Distinguish a class definition head (`struct Name [final]
  // [: bases] {`) from forward declarations, variables of class type,
  // and elaborated type specifiers. Only a definition pushes a scope.
  void enter_class() {
    std::size_t j = i_ + 1;
    // Optional attributes.
    while (j + 1 < toks_.size() && toks_[j].is_punct("[") &&
           toks_[j + 1].is_punct("[")) {
      while (j < toks_.size() && !toks_[j].is_punct("]")) ++j;
      j += 2;
    }
    // Optional (possibly qualified, possibly templated) name.
    bool saw_name = false;
    while (j < toks_.size() &&
           (toks_[j].kind == TokKind::kIdent || toks_[j].is_punct("::"))) {
      if (toks_[j].kind == TokKind::kIdent) {
        if (toks_[j].text == "final") break;
        if (saw_name && !peek_punct(j - 1, "::")) {
          // Two plain identifiers in a row: `struct Foo f ...` — a
          // variable declaration, not a class head.
          ++i_;
          return;
        }
        saw_name = true;
      }
      ++j;
      if (j < toks_.size() && toks_[j].is_punct("<")) {
        // Specialization arguments: skip the angle block.
        std::size_t depth = 0;
        while (j < toks_.size()) {
          if (toks_[j].is_punct("<")) ++depth;
          if (toks_[j].is_punct(">") && --depth == 0) {
            ++j;
            break;
          }
          if (toks_[j].is_punct("{") || toks_[j].is_punct(";")) break;
          ++j;
        }
      }
    }
    if (j < toks_.size() && toks_[j].is_ident("final")) ++j;
    if (j < toks_.size() && toks_[j].is_punct(":")) {
      while (j < toks_.size() && !toks_[j].is_punct("{") &&
             !toks_[j].is_punct(";")) {
        ++j;
      }
    }
    if (j < toks_.size() && toks_[j].is_punct("{")) {
      scopes_.push_back(ScopeKind::kClass);
      i_ = j + 1;
    } else {
      ++i_;  // forward declaration / elaborated specifier
    }
  }

  void enter_enum() {
    std::size_t j = i_ + 1;
    while (j < toks_.size() && !toks_[j].is_punct("{") &&
           !toks_[j].is_punct(";")) {
      ++j;
    }
    if (j < toks_.size() && toks_[j].is_punct("{")) {
      scopes_.push_back(ScopeKind::kEnum);
      i_ = j + 1;
    } else {
      i_ = j < toks_.size() ? j + 1 : j;
    }
  }

  // Matching closer for the opener at `open`; toks_.size() if unmatched.
  std::size_t match(std::size_t open, std::string_view opener,
                    std::string_view closer) const {
    std::size_t depth = 0;
    for (std::size_t j = open; j < toks_.size(); ++j) {
      if (toks_[j].is_punct(opener)) ++depth;
      if (toks_[j].is_punct(closer) && --depth == 0) return j;
    }
    return toks_.size();
  }

  // toks_[i_] is a `PW_*` identifier followed by '(': a contract macro
  // (PW_EXPECT at namespace scope, say), never a function named PW_*.
  void skip_macro_call() {
    const std::size_t close = match(i_ + 1, "(", ")");
    i_ = close < toks_.size() ? close + 1 : toks_.size();
  }

  // toks_[i_] is a non-keyword identifier followed by '('.
  void try_function() {
    const std::size_t name_idx = i_;
    // The token before the name decides whether this can be a
    // declarator: initializers (`= f(x)`), call arguments (`, f(x)`),
    // and operators can't start one.
    if (name_idx > 0) {
      const Token& prev = toks_[name_idx - 1];
      const bool ok_prev =
          prev.kind == TokKind::kIdent || prev.is_punct("::") ||
          prev.is_punct(">") || prev.is_punct("*") || prev.is_punct("&") ||
          prev.is_punct(";") || prev.is_punct("}") || prev.is_punct("{") ||
          prev.is_punct("]") || prev.is_punct("~") || prev.is_punct("#");
      if (!ok_prev ||
          (prev.kind == TokKind::kIdent && is_cpp_keyword(prev.text) &&
           (prev.text == "return" || prev.text == "sizeof" ||
            prev.text == "new" || prev.text == "delete" ||
            prev.text == "throw" || prev.text == "case"))) {
        i_ = match(name_idx + 1, "(", ")") + 1;
        return;
      }
    }
    const std::size_t close = match(name_idx + 1, "(", ")");
    if (close >= toks_.size()) {
      i_ = toks_.size();
      return;
    }
    // Skip declarator suffixes after the parameter list.
    std::size_t j = close + 1;
    while (j < toks_.size()) {
      const Token& t = toks_[j];
      if (t.is_ident("const") || t.is_ident("override") ||
          t.is_ident("final") || t.is_punct("&")) {
        ++j;
      } else if (t.is_ident("noexcept")) {
        ++j;
        if (peek_punct(j, "(")) j = match(j, "(", ")") + 1;
      } else if (t.is_punct("->")) {
        // Trailing return type: identifiers, qualifiers, templates.
        ++j;
        while (j < toks_.size() &&
               (toks_[j].kind == TokKind::kIdent ||
                toks_[j].is_punct("::") || toks_[j].is_punct("*") ||
                toks_[j].is_punct("&"))) {
          ++j;
          if (peek_punct(j, "<")) {
            std::size_t depth = 0;
            while (j < toks_.size()) {
              if (toks_[j].is_punct("<")) ++depth;
              if (toks_[j].is_punct(">") && --depth == 0) {
                ++j;
                break;
              }
              ++j;
            }
          }
        }
      } else {
        break;
      }
    }
    // Constructor member-init list: `: member(expr), member{expr} ... {`.
    if (j < toks_.size() && toks_[j].is_punct(":")) {
      ++j;
      while (j < toks_.size() && !toks_[j].is_punct("{")) {
        if (toks_[j].is_punct("(")) {
          j = match(j, "(", ")") + 1;
        } else if (toks_[j].kind == TokKind::kIdent &&
                   peek_punct(j + 1, "{")) {
          j = match(j + 1, "{", "}") + 1;
        } else if (toks_[j].is_punct(";") || toks_[j].is_punct("}")) {
          break;  // not an init list after all
        } else {
          ++j;
        }
      }
    }
    if (j >= toks_.size() || !toks_[j].is_punct("{")) {
      // Declaration, `= default`, macro invocation, call, variable —
      // no body to record.
      i_ = close + 1;
      return;
    }
    const std::size_t body_open = j;
    const std::size_t body_close = match(body_open, "{", "}");

    out_.push_back({toks_[name_idx].text, toks_[name_idx].line,
                    body_open + 1, body_close});
    i_ = body_close < toks_.size() ? body_close + 1 : toks_.size();
  }

  const std::vector<Token>& toks_;
  std::size_t i_ = 0;
  std::vector<ScopeKind> scopes_;
  std::vector<FunctionDef> out_;
};

}  // namespace

std::vector<FunctionDef> scan_functions(const SourceFile& file) {
  return Scanner(file).run();
}

}  // namespace piggyweb::analysis
