// Small string utilities shared by the HTTP grammar code and the trace
// parsers. All functions operate on string_view and never allocate unless
// they return std::string.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace piggyweb::util {

// ASCII-only case tools (HTTP header names are ASCII by spec).
constexpr char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string to_lower(std::string_view s);

// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

// Strip leading/trailing characters from `chars` (default: HTTP whitespace).
std::string_view trim(std::string_view s, std::string_view chars = " \t\r\n");

// Split on a single delimiter character. Empty fields are preserved:
// split("a,,b", ',') -> {"a", "", "b"}. split("", ',') -> {""}.
std::vector<std::string_view> split(std::string_view s, char delim);

// Split on a delimiter, trimming each piece and dropping empties —
// the shape needed for header-value lists like `rpv="3,4"`.
std::vector<std::string_view> split_trimmed(std::string_view s, char delim);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

// Parse a non-negative decimal integer; returns false on any non-digit or
// overflow. (std::from_chars exists but this keeps call sites terse.)
bool parse_u64(std::string_view s, std::uint64_t& out);
bool parse_i64(std::string_view s, std::int64_t& out);
bool parse_double(std::string_view s, double& out);

// Shortest text that parse_double reads back to the same double, in
// printf's %g style: 0.2 -> "0.2", 1.0 / 3 -> "0.3333333333333333".
std::string format_double(double v);

// URL path helpers ---------------------------------------------------------

// Normalize a resource path the way the paper's log cleanup does (§A):
// collapse "http://host" prefixes away, treat "" and "/" as the same,
// drop a trailing slash except for the root, and strip fragments.
std::string normalize_path(std::string_view path);

// As normalize_path, but writes into `out` (cleared first) so bulk parsers
// can reuse one buffer across millions of lines instead of allocating a
// fresh string per path.
void normalize_path_into(std::string_view path, std::string& out);

// Directory prefix of a URL path at a given level. Level 0 is the server
// root "/" (site-wide); level k keeps the first k directory components.
// A path with fewer than k directories maps to its own directory.
//   directory_prefix("/a/b/c.html", 0) == "/"
//   directory_prefix("/a/b/c.html", 1) == "/a"
//   directory_prefix("/a/b/c.html", 2) == "/a/b"
//   directory_prefix("/a/b/c.html", 9) == "/a/b"
std::string_view directory_prefix(std::string_view path, int level);

// Number of directory components in a path ("/a/b/c.html" has 2).
int directory_depth(std::string_view path);

// Extension without the dot ("/x/y.html" -> "html", none -> ""). Case is
// preserved; compare with iequals().
std::string_view path_extension(std::string_view path);

}  // namespace piggyweb::util
