#include "trace/clf.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>
#include <vector>

#include "trace/stream.h"
#include "util/date.h"
#include "util/scan.h"
#include "util/strings.h"

namespace piggyweb::trace {
namespace {

constexpr std::array<std::string_view, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

int month_index(std::string_view name) {
  for (int i = 0; i < 12; ++i) {
    if (kMonths[static_cast<std::size_t>(i)] == name) return i;
  }
  return -1;
}

}  // namespace

bool parse_clf_date(std::string_view s, std::int64_t& out) {
  // dd/Mon/yyyy:HH:MM:SS [+-]HHMM
  if (s.size() < 20) return false;
  std::int64_t day = 0, year = 0, hh = 0, mm = 0, ss = 0;
  if (s[2] != '/' || s[6] != '/' || s[11] != ':' || s[14] != ':' ||
      s[17] != ':') {
    return false;
  }
  if (!util::parse_i64(s.substr(0, 2), day)) return false;
  const int mon = month_index(s.substr(3, 3));
  if (mon < 0) return false;
  if (!util::parse_i64(s.substr(7, 4), year)) return false;
  if (!util::parse_i64(s.substr(12, 2), hh)) return false;
  if (!util::parse_i64(s.substr(15, 2), mm)) return false;
  if (!util::parse_i64(s.substr(18, 2), ss)) return false;
  if (day < 1 || day > 31 || hh > 23 || mm > 59 || ss > 60) return false;

  std::int64_t offset = 0;
  const auto zone = util::trim(s.substr(20));
  if (!zone.empty()) {
    if (zone.size() != 5 || (zone[0] != '+' && zone[0] != '-')) return false;
    std::int64_t zh = 0, zm = 0;
    if (!util::parse_i64(zone.substr(1, 2), zh) ||
        !util::parse_i64(zone.substr(3, 2), zm)) {
      return false;
    }
    offset = (zh * 3600 + zm * 60) * (zone[0] == '-' ? -1 : 1);
  }
  const auto days = util::days_from_civil(year, mon + 1, static_cast<int>(day));
  out = days * 86400 + hh * 3600 + mm * 60 + ss - offset;
  return true;
}

std::string format_clf_date(std::int64_t unix_seconds) {
  std::int64_t days = unix_seconds / 86400;
  std::int64_t rem = unix_seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  std::int64_t year = 0;
  int mon = 0, day = 0;
  util::civil_from_days(days, year, mon, day);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%02d/%s/%04lld:%02lld:%02lld:%02lld +0000",
                day, std::string(kMonths[static_cast<std::size_t>(mon - 1)]).c_str(),
                static_cast<long long>(year),
                static_cast<long long>(rem / 3600),
                static_cast<long long>((rem / 60) % 60),
                static_cast<long long>(rem % 60));
  return buf;
}

bool is_uncachable_url(std::string_view path) {
  return path.find("cgi") != std::string_view::npos ||
         path.find('?') != std::string_view::npos;
}

namespace {

// Pops the next space/tab-separated token off `s` (empty if exhausted) —
// split_trimmed without the vector.
std::string_view next_token(std::string_view& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) {
    s = {};
    return {};
  }
  auto end = s.find_first_of(" \t", begin);
  if (end == std::string_view::npos) end = s.size();
  const auto token = s.substr(begin, end - begin);
  s.remove_prefix(end);
  return token;
}

}  // namespace

bool parse_clf_fields_scalar(std::string_view line, ClfFields& out) {
  line = util::trim(line);
  if (line.empty()) return false;

  // host
  const auto sp1 = util::find_byte_scalar(line, ' ');
  if (sp1 == std::string_view::npos) return false;
  out.host = line.substr(0, sp1);

  // skip ident + authuser
  const auto bracket = util::find_byte_scalar(line, '[', sp1);
  if (bracket == std::string_view::npos) return false;
  const auto bracket_end = util::find_byte_scalar(line, ']', bracket);
  if (bracket_end == std::string_view::npos) return false;
  std::int64_t ts = 0;
  if (!parse_clf_date(line.substr(bracket + 1, bracket_end - bracket - 1),
                      ts)) {
    return false;
  }
  out.time = {ts};

  const auto quote = util::find_byte_scalar(line, '"', bracket_end);
  if (quote == std::string_view::npos) return false;
  const auto quote_end = util::find_byte_scalar(line, '"', quote + 1);
  if (quote_end == std::string_view::npos) return false;
  auto reqline = line.substr(quote + 1, quote_end - quote - 1);
  const auto method_token = next_token(reqline);
  const auto path_token = next_token(reqline);
  if (method_token.empty() || path_token.empty()) return false;
  if (!parse_method(method_token, out.method)) return false;
  util::normalize_path_into(path_token, out.path);

  auto tail = line.substr(quote_end + 1);
  const auto status_token = next_token(tail);
  if (status_token.empty()) return false;
  std::uint64_t status = 0;
  if (!util::parse_u64(status_token, status) || status > 999) return false;
  out.status = static_cast<std::uint16_t>(status);
  out.size = 0;
  const auto size_token = next_token(tail);
  if (!size_token.empty() && size_token != "-") {
    if (!util::parse_u64(size_token, out.size)) return false;
  }
  return true;
}

// Production parser: identical field grammar to the scalar reference, but
// every line-level delimiter (host space, timestamp brackets, request-line
// quotes) is located by the wide scanner, 16 (SSE2) or 8 (SWAR) bytes per
// step. The randomized differential in trace_clf_test pins the two
// implementations together.
bool parse_clf_fields(std::string_view line, ClfFields& out) {
  line = util::trim(line);
  if (line.empty()) return false;

  // host
  const auto sp1 = util::find_byte(line, ' ');
  if (sp1 == std::string_view::npos) return false;
  out.host = line.substr(0, sp1);

  // skip ident + authuser
  const auto bracket = util::find_byte(line, '[', sp1);
  if (bracket == std::string_view::npos) return false;
  const auto bracket_end = util::find_byte(line, ']', bracket);
  if (bracket_end == std::string_view::npos) return false;
  std::int64_t ts = 0;
  if (!parse_clf_date(line.substr(bracket + 1, bracket_end - bracket - 1),
                      ts)) {
    return false;
  }
  out.time = {ts};

  const auto quote = util::find_byte(line, '"', bracket_end);
  if (quote == std::string_view::npos) return false;
  const auto quote_end = util::find_byte(line, '"', quote + 1);
  if (quote_end == std::string_view::npos) return false;
  auto reqline = line.substr(quote + 1, quote_end - quote - 1);
  const auto method_token = next_token(reqline);
  const auto path_token = next_token(reqline);
  if (method_token.empty() || path_token.empty()) return false;
  if (!parse_method(method_token, out.method)) return false;
  util::normalize_path_into(path_token, out.path);

  auto tail = line.substr(quote_end + 1);
  const auto status_token = next_token(tail);
  if (status_token.empty()) return false;
  std::uint64_t status = 0;
  if (!util::parse_u64(status_token, status) || status > 999) return false;
  out.status = static_cast<std::uint16_t>(status);
  out.size = 0;
  const auto size_token = next_token(tail);
  if (!size_token.empty() && size_token != "-") {
    if (!util::parse_u64(size_token, out.size)) return false;
  }
  return true;
}

std::optional<ClfEntry> parse_clf_line(std::string_view line) {
  ClfFields fields;
  if (!parse_clf_fields(line, fields)) return std::nullopt;
  ClfEntry entry;
  entry.host = std::string(fields.host);
  entry.time = fields.time;
  entry.method = fields.method;
  entry.path = std::move(fields.path);
  entry.status = fields.status;
  entry.size = fields.size;
  return entry;
}

std::string format_clf_line(const ClfEntry& entry) {
  std::string out;
  out.reserve(96);
  out += entry.host;
  out += " - - [";
  out += format_clf_date(entry.time.value);
  out += "] \"";
  out += method_name(entry.method);
  out += ' ';
  out += entry.path;
  out += " HTTP/1.0\" ";
  out += std::to_string(entry.status);
  out += ' ';
  out += std::to_string(entry.size);
  return out;
}

ClfLoadResult load_clf_text(std::string_view text, Trace& trace,
                            const ClfLoadOptions& options) {
  ClfLoadResult result;
  trace.reserve(trace.size() + text.size() / 64);

  ClfFields fields;  // path buffer reused across all lines
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto eol = util::find_byte(text, '\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const auto line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (util::trim(line).empty()) continue;
    if (!parse_clf_fields(line, fields)) {
      ++result.skipped_malformed;
      continue;
    }
    if (options.drop_uncachable && is_uncachable_url(fields.path)) {
      ++result.skipped_filtered;
      continue;
    }
    if (options.drop_post && fields.method != Method::kGet) {
      ++result.skipped_filtered;
      continue;
    }
    trace.add(fields.time, fields.host, options.server_name, fields.path,
              fields.method, fields.status, fields.size);
    ++result.parsed;
  }
  return result;
}

ClfLoss write_clf(std::ostream& out, const Trace& trace) {
  MaterializedTraceView view(trace);
  return write_clf(out, view);
}

ClfLoss write_clf(std::ostream& out, TraceView& view) {
  const auto sources = view.sources();
  const auto paths = view.paths();
  const auto total = view.request_count();
  constexpr std::size_t kWriteWindow = 4096;
  ClfLoss loss;
  std::vector<bool> server_seen(view.servers().size());
  std::size_t servers = 0;
  ClfEntry entry;
  for (std::size_t base = 0; base < total; base += kWriteWindow) {
    const auto count = std::min(kWriteWindow, total - base);
    for (const auto& r : view.window(base, count)) {
      if (!server_seen[r.server]) {
        server_seen[r.server] = true;
        ++servers;
      }
      if (r.last_modified != -1) ++loss.last_modified;
      entry.host = std::string(sources.str(r.source));
      entry.time = r.time;
      entry.method = r.method;
      entry.path = std::string(paths.str(r.path));
      entry.status = r.status;
      entry.size = r.size;
      out << format_clf_line(entry) << '\n';
    }
  }
  if (servers > 1) loss.servers = servers;
  return loss;
}

}  // namespace piggyweb::trace
