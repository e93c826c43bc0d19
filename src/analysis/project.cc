#include "analysis/project.h"

#include <algorithm>

#include "analysis/lexer.h"
#include "analysis/rules.h"

namespace piggyweb::analysis {

std::vector<IncludeRef> includes_of(const SourceFile& file) {
  std::vector<IncludeRef> out;
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].is_punct("#") && toks[i + 1].is_ident("include") &&
        toks[i + 2].kind == TokKind::kString) {
      out.push_back({toks[i + 2].text, toks[i + 2].line});
    }
  }
  return out;
}

SourceFile& Project::add_file(std::string path, std::string text) {
  auto file = std::make_unique<SourceFile>();
  file->path = std::move(path);
  file->text = std::move(text);
  file->tokens = lex(file->text);
  SourceFile& ref = *file;
  by_path_[ref.path] = file.get();
  files_.push_back(std::move(file));
  return ref;
}

const SourceFile* Project::find(std::string_view path) const {
  const auto it = by_path_.find(path);
  return it == by_path_.end() ? nullptr : it->second;
}

std::string Project::resolve_include(const SourceFile& from,
                                     std::string_view target) const {
  std::string candidate = "src/";
  candidate += target;
  if (find(candidate) != nullptr) return candidate;
  const auto slash = from.path.rfind('/');
  if (slash != std::string::npos) {
    candidate = from.path.substr(0, slash + 1);
    candidate += target;
    if (find(candidate) != nullptr) return candidate;
  }
  candidate = target;
  if (find(candidate) != nullptr) return candidate;
  return {};
}

// Names a header "provides": macro definitions, type names, alias
// names, anything that looks like a function name or an initialized
// declaration. Deliberately over-approximates — a symbol wrongly listed
// as provided can only make the unused-include check more conservative.
void Project::collect_own_symbols(const SourceFile& file,
                                  std::set<std::string_view>& out) const {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.is_punct("#") && i + 2 < toks.size() &&
        toks[i + 1].is_ident("define") &&
        toks[i + 2].kind == TokKind::kIdent) {
      out.insert(toks[i + 2].text);
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "class" || t.text == "struct" || t.text == "union" ||
        t.text == "enum") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].is_ident("class")) ++j;  // enum class
      if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
          !is_cpp_keyword(toks[j].text)) {
        out.insert(toks[j].text);
      }
      continue;
    }
    if (t.text == "using") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].is_ident("namespace")) continue;
      if (j + 1 < toks.size() && toks[j].kind == TokKind::kIdent &&
          toks[j + 1].is_punct("=")) {
        out.insert(toks[j].text);  // using Alias = ...;
        continue;
      }
      // using foo::bar; — provides the last identifier before ';'.
      std::string_view last;
      while (j < toks.size() && !toks[j].is_punct(";")) {
        if (toks[j].kind == TokKind::kIdent) last = toks[j].text;
        ++j;
      }
      if (!last.empty()) out.insert(last);
      continue;
    }
    if (is_cpp_keyword(t.text)) continue;
    const bool prev_declish =
        i > 0 && (toks[i - 1].kind == TokKind::kIdent ||
                  toks[i - 1].is_punct(">") || toks[i - 1].is_punct("*") ||
                  toks[i - 1].is_punct("&"));
    if (i + 1 < toks.size()) {
      const Token& next = toks[i + 1];
      if (next.is_punct("(")) {
        // Function declaration or call — over-approximate as provided.
        out.insert(t.text);
      } else if (prev_declish &&
                 (next.is_punct("=") || next.is_punct("{") ||
                  next.is_punct(";"))) {
        out.insert(t.text);  // initialized / declared entity
      }
    }
  }
}

const std::set<std::string_view>* Project::provided_symbols(
    std::string_view path) const {
  const auto cached = provided_cache_.find(path);
  if (cached != provided_cache_.end()) return &cached->second;
  const SourceFile* file = find(path);
  if (file == nullptr) return nullptr;
  // Insert the (empty) entry first: it doubles as the cycle guard for
  // mutually-including headers. std::map node stability keeps `entry`
  // valid across the recursive inserts below.
  auto& entry = provided_cache_[std::string(path)];
  collect_own_symbols(*file, entry);
  for (const IncludeRef& inc : includes_of(*file)) {
    if (inc.spec.size() < 2 || inc.spec.front() != '"') continue;
    const std::string resolved = resolve_include(
        *file, inc.spec.substr(1, inc.spec.size() - 2));
    if (resolved.empty()) continue;
    if (const auto* sub = provided_symbols(resolved)) {
      entry.insert(sub->begin(), sub->end());
    }
  }
  return &entry;
}

std::vector<Diagnostic> Project::analyze() const {
  std::vector<Diagnostic> out;
  for (const auto& file : files_) {
    check_determinism(*this, *file, out);
    check_flatmap_safety(*this, *file, out);
    check_contracts(*this, *file, out);
    check_headers(*this, *file, out);
    check_view_invalidation(*this, *file, out);
  }
  std::sort(out.begin(), out.end(), diagnostic_less);
  return out;
}

}  // namespace piggyweb::analysis
