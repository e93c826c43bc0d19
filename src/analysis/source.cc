#include "analysis/source.h"

#include <tuple>

namespace piggyweb::analysis {

std::string format_diagnostic(const Diagnostic& d) {
  std::string out = d.file;
  out += ':';
  out += std::to_string(d.line);
  out += ": [";
  out += d.rule;
  out += "] ";
  out += d.message;
  return out;
}

bool diagnostic_less(const Diagnostic& a, const Diagnostic& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

std::string_view module_of(std::string_view path) {
  const auto first = path.find('/');
  if (first == std::string_view::npos) return path;
  if (path.substr(0, first) != "src") return path.substr(0, first);
  const auto second = path.find('/', first + 1);
  return second == std::string_view::npos ? path
                                          : path.substr(0, second);
}

}  // namespace piggyweb::analysis
