#include "analysis/functions.h"

#include "analysis/lexer.h"

namespace piggyweb::analysis {

namespace {

enum class ScopeKind { kNamespace, kClass, kEnum, kOther };

struct Scope {
  ScopeKind kind = ScopeKind::kOther;
  bool public_access = true;
  std::string_view name;  // class name for kClass scopes, else empty
};

class Scanner {
 public:
  explicit Scanner(const SourceFile& file) : toks_(file.tokens) {}

  std::vector<FunctionDef> run() {
    while (i_ < toks_.size()) {
      const Token& t = toks_[i_];
      if (t.is_punct("#")) {
        skip_directive();
      } else if (t.is_punct("{")) {
        scopes_.push_back({ScopeKind::kOther, true, {}});
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
        enter_class(t.text != "class");
      } else if (t.text == "enum") {
        enter_enum();
      } else if ((t.text == "public" || t.text == "protected" ||
                  t.text == "private") &&
                 peek_punct(i_ + 1, ":") && !scopes_.empty() &&
                 scopes_.back().kind == ScopeKind::kClass) {
        scopes_.back().public_access = t.text == "public";
        i_ += 2;
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
    return scopes_.empty() || scopes_.back().kind == ScopeKind::kNamespace ||
           scopes_.back().kind == ScopeKind::kClass;
  }

  bool peek_punct(std::size_t idx, std::string_view text) const {
    return idx < toks_.size() && toks_[idx].is_punct(text);
  }

  // Lexical class scopes, outermost first (unnamed scopes skipped).
  std::vector<std::string_view> class_path() const {
    std::vector<std::string_view> path;
    for (const Scope& s : scopes_) {
      if (s.kind == ScopeKind::kClass && !s.name.empty()) {
        path.push_back(s.name);
      }
    }
    return path;
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
      scopes_.push_back({ScopeKind::kNamespace, true, {}});
      ++i_;
    } else if (i_ < toks_.size()) {
      ++i_;  // namespace alias
    }
  }

  // Distinguish a class definition head (`struct Name [final]
  // [: bases] {`) from forward declarations, variables of class type,
  // and elaborated type specifiers. Only a definition pushes a scope.
  void enter_class(bool default_public) {
    std::size_t j = i_ + 1;
    // Optional attributes.
    while (j + 1 < toks_.size() && toks_[j].is_punct("[") &&
           toks_[j + 1].is_punct("[")) {
      while (j < toks_.size() && !toks_[j].is_punct("]")) ++j;
      j += 2;
    }
    // Optional (possibly qualified, possibly templated) name.
    bool saw_name = false;
    std::string_view class_name;
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
        class_name = toks_[j].text;
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
      scopes_.push_back({ScopeKind::kClass, default_public, class_name});
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
      scopes_.push_back({ScopeKind::kEnum, true, {}});
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

    FunctionDef def;
    def.name = toks_[name_idx].text;
    def.line = toks_[name_idx].line;
    def.params = parse_params(name_idx + 1, close);
    def.body_begin = body_open + 1;
    def.body_end = body_close;
    def.at_class_scope =
        !scopes_.empty() && scopes_.back().kind == ScopeKind::kClass;
    def.is_public = true;
    def.classes = qualified_classes(name_idx);
    for (const Scope& s : scopes_) {
      if (s.kind == ScopeKind::kClass && !s.public_access) {
        def.is_public = false;
      }
    }
    out_.push_back(std::move(def));
    i_ = body_close < toks_.size() ? body_close + 1 : toks_.size();
  }

  // Lexical class scopes plus the `A::B::` qualifiers preceding the
  // function name at `name_idx` (out-of-line definitions), outermost
  // first. A destructor's '~' is skipped; qualifiers that are template
  // specializations (`FlatMap<K, V>::`) contribute the template's name.
  std::vector<std::string_view> qualified_classes(
      std::size_t name_idx) const {
    std::vector<std::string_view> quals;
    std::size_t k = name_idx;
    if (k > 0 && toks_[k - 1].is_punct("~")) --k;
    while (k >= 2 && toks_[k - 1].is_punct("::")) {
      std::size_t q = k - 2;
      if (toks_[q].is_punct(">")) {
        // Backward-skip the template argument block.
        std::size_t depth = 0;
        while (true) {
          if (toks_[q].is_punct(">")) ++depth;
          if (toks_[q].is_punct("<") && --depth == 0) break;
          if (q == 0) return quals;
          --q;
        }
        if (q == 0) return quals;
        --q;  // the template's name
      }
      if (toks_[q].kind != TokKind::kIdent || is_cpp_keyword(toks_[q].text)) {
        break;
      }
      quals.insert(quals.begin(), toks_[q].text);
      k = q;
    }
    std::vector<std::string_view> path = class_path();
    path.insert(path.end(), quals.begin(), quals.end());
    return path;
  }

  // Parameters between toks_[open] == '(' and toks_[close] == ')'.
  std::vector<ParamInfo> parse_params(std::size_t open,
                                      std::size_t close) const {
    std::vector<ParamInfo> params;
    std::size_t piece_begin = open + 1;
    std::size_t depth = 0;
    for (std::size_t j = open + 1; j <= close; ++j) {
      const Token& t = toks_[j];
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
        if (j > piece_begin) params.push_back(param_name(piece_begin, j));
        piece_begin = j + 1;
      }
    }
    return params;
  }

  // The declared name within one parameter piece [begin, end), or an
  // empty name for unnamed parameters. The name is the trailing
  // identifier of a multi-token piece; a lone identifier (or one
  // reached through '::') is a type.
  ParamInfo param_name(std::size_t begin, std::size_t end) const {
    std::size_t stop = end;
    std::size_t depth = 0;
    for (std::size_t j = begin; j < end; ++j) {  // strip default argument
      const Token& t = toks_[j];
      if (t.is_punct("(") || t.is_punct("<")) ++depth;
      if (t.is_punct(")") || t.is_punct(">")) {
        if (depth > 0) --depth;
      }
      if (depth == 0 && t.is_punct("=")) {
        stop = j;
        break;
      }
    }
    if (stop - begin < 2) return {};
    std::size_t last = stop;
    while (last > begin) {
      --last;
      if (toks_[last].kind == TokKind::kIdent) break;
      if (!toks_[last].is_punct("[") && !toks_[last].is_punct("]")) {
        return {};  // piece ends in punctuation: `const Foo&` etc.
      }
    }
    if (toks_[last].kind != TokKind::kIdent) return {};
    if (is_cpp_keyword(toks_[last].text)) return {};
    if (last > begin && toks_[last - 1].is_punct("::")) return {};
    return {toks_[last].text};
  }

  const std::vector<Token>& toks_;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;
  std::vector<FunctionDef> out_;
};

}  // namespace

std::vector<FunctionDef> scan_functions(const SourceFile& file) {
  return Scanner(file).run();
}

}  // namespace piggyweb::analysis
