// Trace ingestion. Every consumer of a trace — the evaluate, analyze and
// convert tools, the benches — reads it through one of two entry points
// that resolve a spec the same way:
//
//   * load_trace materializes a Trace;
//   * open_trace_view (trace/stream.h) returns a TraceView, which streams
//     a binary container window by window off its mapping and holds any
//     other input as a materialized Trace.
//
// A spec names one of three inputs:
//
//   * CLF text logs (trace/clf.h),
//   * "PIGGYTRC" columnar binary containers, memory-mapped and decoded
//     zero-copy (trace/binary.h, util/mmap_file.h),
//   * synthetic profiles, via the spec "synthetic:<profile>[:<scale>]"
//     (e.g. "synthetic:aiusa:0.1") instead of a file path.
//
// The format is sniffed from the spec by default: a "synthetic:" prefix
// selects generation, files starting with the 8-byte "PIGGYTRC" magic are
// binary, everything else parses as CLF. Callers can pin the format
// explicitly (the tools' --trace-format flag). Files are mapped once, and
// the mapping serves both the sniff and the load; anything that is not a
// regular file (a directory, a pipe) is refused.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "trace/clf.h"
#include "trace/record.h"

namespace piggyweb::trace {

enum class TraceFormat : std::uint8_t { kAuto, kClf, kBinary, kSynthetic };

// "auto" / "clf" / "binary" / "synthetic"; false on anything else.
bool parse_trace_format(std::string_view name, TraceFormat& out);
std::string_view trace_format_name(TraceFormat format);

// Which backing path actually served a load — distinct from the format:
// CLF text parses and binary containers decode out of a mapping into a
// materialized Trace (kMmap), a binary TraceView decodes batch by batch
// without materializing (kStream), and synthetic traces are generated.
enum class TraceBacking : std::uint8_t { kMmap, kStream, kGenerated };
std::string_view trace_backing_name(TraceBacking backing);

struct TraceSourceOptions {
  TraceFormat format = TraceFormat::kAuto;
  ClfLoadOptions clf;  // applied only when the input parses as CLF text
};

// What a load actually did, for the tools' "parsed N requests" line.
struct TraceLoadStats {
  TraceFormat format = TraceFormat::kClf;  // resolved, never kAuto
  TraceBacking backing = TraceBacking::kMmap;  // path that served it
  std::size_t requests = 0;
  std::size_t skipped_malformed = 0;  // CLF only
  std::size_t skipped_filtered = 0;   // CLF only
};

// Materialize `spec` into the empty `out`, time-sorted. Returns false with
// a message in `error` when the spec cannot be resolved (missing file,
// not a regular file, bad synthetic spec) or a binary container is
// malformed; `out` is unspecified then.
bool load_trace(const std::string& spec, const TraceSourceOptions& options,
                Trace& out, TraceLoadStats& stats, std::string& error);

}  // namespace piggyweb::trace
