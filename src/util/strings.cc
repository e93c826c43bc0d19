#include "util/strings.h"

#include <charconv>
#include <cstdint>

#include "util/expect.h"

namespace piggyweb::util {

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) out.push_back(ascii_lower(c));
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::string_view trim(std::string_view s, std::string_view chars) {
  const auto first = s.find_first_not_of(chars);
  if (first == std::string_view::npos) return {};
  const auto last = s.find_last_not_of(chars);
  return s.substr(first, last - first + 1);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_trimmed(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  for (const auto piece : split(s, delim)) {
    const auto trimmed = trim(piece);
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_i64(std::string_view s, std::int64_t& out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(std::string_view s, double& out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string format_double(double v) {
  // The longest shortest form, "-2.2250738585072014e-308", is 24 chars.
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general);
  PW_ENSURE(ec == std::errc{});
  return std::string(buf, ptr);
}

std::string normalize_path(std::string_view path) {
  std::string out;
  normalize_path_into(path, out);
  return out;
}

void normalize_path_into(std::string_view path, std::string& out) {
  out.clear();
  // Strip scheme+host if a full URL slipped into the log.
  if (starts_with(path, "http://") || starts_with(path, "https://")) {
    const auto rest = path.substr(path.find("//") + 2);
    const auto slash = rest.find('/');
    path = (slash == std::string_view::npos) ? std::string_view{"/"}
                                             : rest.substr(slash);
  }
  // Drop fragment and (the paper deletes query URLs upstream, but be safe).
  if (const auto frag = path.find('#'); frag != std::string_view::npos) {
    path = path.substr(0, frag);
  }
  if (path.empty()) {
    out.push_back('/');
    return;
  }
  out.reserve(path.size() + 1);
  if (path.front() != '/') out.push_back('/');
  out.append(path);
  // "http://www.foo.com/" and "http://www.foo.com" are the same resource.
  while (out.size() > 1 && out.back() == '/') out.pop_back();
}

std::string_view directory_prefix(std::string_view path, int level) {
  if (level <= 0 || path.empty() || path.front() != '/') return "/";
  // Find the position after `level` directory components, counting only
  // components that are followed by a further '/' (i.e. real directories;
  // the final component is the resource name).
  std::size_t pos = 0;  // index of the '/' that opens the current component
  int depth = 0;
  while (depth < level) {
    const auto next = path.find('/', pos + 1);
    if (next == std::string_view::npos) {
      // No more directories; the prefix is everything before the filename.
      return depth == 0 ? std::string_view{"/"} : path.substr(0, pos);
    }
    pos = next;
    ++depth;
  }
  return path.substr(0, pos);
}

int directory_depth(std::string_view path) {
  if (path.empty() || path.front() != '/') return 0;
  int depth = 0;
  std::size_t pos = 0;
  while (true) {
    const auto next = path.find('/', pos + 1);
    if (next == std::string_view::npos) return depth;
    pos = next;
    ++depth;
  }
}

std::string_view path_extension(std::string_view path) {
  const auto slash = path.find_last_of('/');
  const auto base =
      (slash == std::string_view::npos) ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  if (dot == std::string_view::npos || dot + 1 == base.size()) return {};
  return base.substr(dot + 1);
}

}  // namespace piggyweb::util
