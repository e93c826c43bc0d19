#include "trace/source.h"

#include <cstdlib>
#include <memory>
#include <optional>

#include "trace/binary.h"
#include "trace/profiles.h"
#include "trace/stream.h"
#include "util/expect.h"
#include "util/mmap_file.h"

namespace piggyweb::trace {
namespace {

constexpr std::string_view kSyntheticPrefix = "synthetic:";

// Parse "synthetic:<profile>[:<scale>]" into a profile.
std::optional<LogProfile> parse_synthetic(std::string_view spec,
                                          std::string& error) {
  std::string_view rest = spec.substr(kSyntheticPrefix.size());
  std::string_view name = rest;
  std::string_view scale_text;
  if (const std::size_t colon = rest.find(':');
      colon != std::string_view::npos) {
    name = rest.substr(0, colon);
    scale_text = rest.substr(colon + 1);
  }
  std::optional<LogProfile> profile;
  if (scale_text.empty()) {
    profile = profile_by_name(name);
  } else {
    const std::string text(scale_text);
    char* end = nullptr;
    const double scale = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(scale > 0.0)) {
      error = "bad synthetic trace scale '" + text + "'";
      return std::nullopt;
    }
    profile = profile_by_name(name, scale);
  }
  if (!profile) {
    error = "unknown synthetic profile '" + std::string(name) +
            "' (aiusa|marimba|apache|sun|att_client|digital_client)";
  }
  return profile;
}

// A spec resolved to its format: a file mapped once (its first bytes
// sniffed when the format is kAuto), or a synthetic profile.
struct ResolvedTrace {
  TraceFormat format = TraceFormat::kAuto;
  util::MmapFile file;                // kClf and kBinary
  std::optional<LogProfile> profile;  // kSynthetic
};

bool resolve(const std::string& spec, TraceFormat format,
             ResolvedTrace& out, std::string& error) {
  if (format == TraceFormat::kAuto && spec.starts_with(kSyntheticPrefix)) {
    format = TraceFormat::kSynthetic;
  }
  out.format = format;
  if (format == TraceFormat::kSynthetic) {
    if (!spec.starts_with(kSyntheticPrefix)) {
      error = "synthetic trace specs look like synthetic:<profile>[:scale]";
      return false;
    }
    out.profile = parse_synthetic(spec, error);
    return out.profile.has_value();
  }
  auto file = util::MmapFile::open(spec, error);
  if (!file) return false;
  file->advise_sequential();
  out.file = std::move(*file);
  if (format == TraceFormat::kAuto) {
    out.format = looks_like_binary_trace(out.file.bytes())
                     ? TraceFormat::kBinary
                     : TraceFormat::kClf;
  }
  return true;
}

bool materialize(const std::string& spec, const ResolvedTrace& input,
                 const ClfLoadOptions& clf, Trace& out,
                 TraceLoadStats& stats, std::string& error) {
  stats = {};
  stats.format = input.format;
  switch (input.format) {
    case TraceFormat::kClf: {
      const auto result = load_clf_text(input.file.bytes(), out, clf);
      out.sort_by_time();
      stats.skipped_malformed = result.skipped_malformed;
      stats.skipped_filtered = result.skipped_filtered;
      break;
    }
    case TraceFormat::kBinary:
      // Binary containers preserve the order they were written in, and
      // open() rejects one whose time column decreases, so no re-sort.
      if (!load_binary_trace(input.file.bytes(), out, error)) {
        error = spec + ": " + error;
        return false;
      }
      break;
    case TraceFormat::kSynthetic:
      out = generate(*input.profile).trace;
      out.sort_by_time();
      stats.backing = TraceBacking::kGenerated;
      break;
    case TraceFormat::kAuto:
      PW_UNREACHABLE();  // resolve() never leaves the format unresolved
  }
  stats.requests = out.size();
  return true;
}

}  // namespace

bool parse_trace_format(std::string_view name, TraceFormat& out) {
  if (name == "auto") out = TraceFormat::kAuto;
  else if (name == "clf") out = TraceFormat::kClf;
  else if (name == "binary") out = TraceFormat::kBinary;
  else if (name == "synthetic") out = TraceFormat::kSynthetic;
  else return false;
  return true;
}

std::string_view trace_format_name(TraceFormat format) {
  switch (format) {
    case TraceFormat::kAuto: return "auto";
    case TraceFormat::kClf: return "clf";
    case TraceFormat::kBinary: return "binary";
    case TraceFormat::kSynthetic: return "synthetic";
  }
  return "auto";
}

std::string_view trace_backing_name(TraceBacking backing) {
  switch (backing) {
    case TraceBacking::kMmap: return "mmap";
    case TraceBacking::kStream: return "stream";
    case TraceBacking::kGenerated: return "generated";
  }
  return "mmap";
}

bool load_trace(const std::string& spec, const TraceSourceOptions& options,
                Trace& out, TraceLoadStats& stats, std::string& error) {
  ResolvedTrace input;
  return resolve(spec, options.format, input, error) &&
         materialize(spec, input, options.clf, out, stats, error);
}

std::unique_ptr<TraceView> open_trace_view(const std::string& spec,
                                           const TraceSourceOptions& options,
                                           TraceLoadStats& stats,
                                           std::string& error) {
  ResolvedTrace input;
  if (!resolve(spec, options.format, input, error)) return nullptr;
  if (input.format == TraceFormat::kBinary) {
    auto view = StreamingTraceSource::open(std::move(input.file), spec, error);
    if (view == nullptr) return nullptr;
    stats = {};
    stats.format = TraceFormat::kBinary;
    stats.backing = TraceBacking::kStream;
    stats.requests = view->request_count();
    return view;
  }
  Trace trace;
  if (!materialize(spec, input, options.clf, trace, stats, error)) {
    return nullptr;
  }
  return std::make_unique<MaterializedTraceView>(std::move(trace));
}

}  // namespace piggyweb::trace
