// Common Log Format (CLF) reader/writer. The 1998 server logs the paper
// used were Apache-style CLF:
//
//   host ident authuser [10/Oct/1998:13:55:36 -0700] "GET /p.html HTTP/1.0" 200 2326
//
// We parse into Trace records (applying the paper's §A cleanup: path
// normalization, dropping "cgi"/query URLs if requested) and can write
// synthetic traces back out as CLF so external tools can consume them.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "trace/record.h"

namespace piggyweb::trace {

class TraceView;

struct ClfEntry {
  std::string host;         // remote client
  util::TimePoint time;     // seconds since Unix epoch
  Method method = Method::kGet;
  std::string path;         // normalized
  std::uint16_t status = 200;
  std::uint64_t size = 0;   // "-" maps to 0
};

// Parse one CLF line. Returns nullopt on malformed input (callers count
// and skip bad lines, the standard posture for real-world logs).
std::optional<ClfEntry> parse_clf_line(std::string_view line);

// Allocation-free parsed form for bulk loading: `host` is a view into the
// input line (valid only until the caller's line buffer changes) and the
// normalized path is written into the reusable `path` buffer. Parsing a
// line performs no heap allocation once `path` has grown to the longest
// path seen. Returns false on malformed input, leaving `out` unspecified.
struct ClfFields {
  std::string_view host;
  util::TimePoint time;
  Method method = Method::kGet;
  std::string path;  // reusable normalized-path buffer
  std::uint16_t status = 200;
  std::uint64_t size = 0;
};
bool parse_clf_fields(std::string_view line, ClfFields& out);

// Reference implementation of parse_clf_fields using one-byte-at-a-time
// scanning. parse_clf_fields itself locates delimiters with the wide
// (SSE2/SWAR) scanner in util/scan.h; the two must agree on every input —
// a randomized differential test enforces it. Exposed for that test.
bool parse_clf_fields_scalar(std::string_view line, ClfFields& out);

// Serialize an entry back to a CLF line (UTC zone).
std::string format_clf_line(const ClfEntry& entry);

// Parse "10/Oct/1998:13:55:36 -0700" to Unix seconds. Exposed for tests.
bool parse_clf_date(std::string_view s, std::int64_t& out);
std::string format_clf_date(std::int64_t unix_seconds);

struct ClfLoadOptions {
  std::string server_name = "server";  // server logs don't name themselves
  bool drop_uncachable = true;   // drop "cgi" substrings and '?' queries (§A)
  bool drop_post = false;        // optionally drop non-GET methods
};

struct ClfLoadResult {
  std::size_t parsed = 0;
  std::size_t skipped_malformed = 0;
  std::size_t skipped_filtered = 0;
};

// Append every line of `text` (typically an mmap'd log file) to `trace`.
// Lines are split with the wide byte scanner and parsed without any
// per-line copy; blank lines are skipped and a final line without '\n'
// still counts. Does not sort; call sort_by_time().
ClfLoadResult load_clf_text(std::string_view text, Trace& trace,
                            const ClfLoadOptions& options = {});

// What a CLF file cannot hold of the trace written to it. CLF lines name
// no server and carry no Last-Modified, so reading the file back stamps
// every request with one server name and an unknown modification time.
struct ClfLoss {
  std::size_t servers = 0;        // distinct servers, when more than one
  std::size_t last_modified = 0;  // requests whose Last-Modified was known
};

// Write a trace as CLF lines (server logs: one line per request) and
// report what the lines could not hold. The TraceView overload walks
// bounded windows, so a streaming (mmap-backed) view converts to CLF
// without materializing; the Trace overload delegates to it and writes
// identical bytes.
ClfLoss write_clf(std::ostream& out, const Trace& trace);
ClfLoss write_clf(std::ostream& out, TraceView& view);

// §A cleanup predicate: true if the URL should be treated as uncachable.
bool is_uncachable_url(std::string_view path);

}  // namespace piggyweb::trace
