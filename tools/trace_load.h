// Shared trace-input plumbing for the CLI tools. Every tool that replays a
// trace registers the same flags and reads it through trace/source.h, so
// CLF logs, "PIGGYTRC" binary containers, and
// "synthetic:<profile>[:scale]" specs work uniformly everywhere:
//
//   --log=<path|spec>      the trace to load
//   --trace-format=auto    auto|clf|binary|synthetic (auto sniffs)
//   --server-name=server   origin name recorded for CLF server logs
//   --keep-uncachable      keep cgi/query URLs instead of the §A cleanup
#pragma once

#include <cstdio>
#include <memory>

#include "cli_common.h"
#include "obs/manifest.h"
#include "trace/clf.h"
#include "trace/source.h"
#include "trace/stream.h"

namespace piggyweb::tools {

// Register --log / --trace-format / --server-name / --keep-uncachable.
// `primary` renames the trace flag itself (piggyweb_convert calls it --in).
void add_trace_flags(FlagSet& flags, const char* primary = "log");

// The TraceSourceOptions those flags describe; false (with a message on
// stderr) if --trace-format names an unknown format.
bool trace_options_from_flags(const FlagSet& flags,
                              trace::TraceSourceOptions& out);

// Load the --log trace: resolve the spec, load, sort, and print the
// "parsed N requests" progress line to `info` (including which backing
// path served the load: mmap, stream, or generated). Returns 0
// on success or the process exit code to propagate (2 for flag errors, 1
// for load failures and empty traces), after printing the error to
// stderr. When `stats_out` is non-null the load stats are copied there so
// the caller can note them in its run manifest.
int load_trace_from_flags(const FlagSet& flags, std::FILE* info,
                          trace::Trace& out, const char* primary = "log",
                          trace::TraceLoadStats* stats_out = nullptr);

// The same for a TraceView: binary containers stream off the mapping,
// other formats materialize inside the view. Same progress line and
// return convention.
int load_view_from_flags(const FlagSet& flags, std::FILE* info,
                         std::unique_ptr<trace::TraceView>& out,
                         const char* primary = "log",
                         trace::TraceLoadStats* stats_out = nullptr);

// Manifest section describing a load: requests/malformed/filtered counts
// plus the format and backing names — attach with run_scope->note("trace").
obs::Json trace_stats_note(const trace::TraceLoadStats& stats);

// Print on stderr what the CLF file at `path` could not hold of the trace
// trace::write_clf wrote to it; print nothing when it lost nothing.
void warn_clf_loss(const std::string& path, const trace::ClfLoss& loss);

}  // namespace piggyweb::tools
