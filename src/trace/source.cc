#include "trace/source.h"

#include <cstdlib>
#include <fstream>

#include "trace/binary.h"
#include "trace/profiles.h"
#include "util/mmap_file.h"

namespace piggyweb::trace {
namespace {

constexpr std::string_view kSyntheticPrefix = "synthetic:";

class ClfTraceSource final : public TraceSource {
 public:
  ClfTraceSource(std::string path, ClfLoadOptions options)
      : path_(std::move(path)), options_(std::move(options)) {}

  bool load(Trace& out, TraceLoadStats& stats, std::string& error) override {
    ClfLoadResult result;
    // Prefer parsing straight out of an mmap'd buffer (wide-scanner line
    // splitting, no per-line copy); fall back to the ifstream path when
    // the file cannot be mapped (e.g. process substitution pipes).
    std::string mmap_error;
    if (auto mapping = util::MmapFile::open(path_, mmap_error)) {
      mapping->advise_sequential();
      result = load_clf_text(mapping->bytes(), out, options_);
      stats.backing = TraceBacking::kMmap;
    } else {
      std::ifstream in(path_, std::ios::binary);
      if (!in) {
        error = path_ + ": cannot open";
        return false;
      }
      result = load_clf(in, out, options_);
      stats.backing = TraceBacking::kReadCopy;
    }
    out.sort_by_time();
    stats.format = TraceFormat::kClf;
    stats.requests = result.parsed;
    stats.skipped_malformed = result.skipped_malformed;
    stats.skipped_filtered = result.skipped_filtered;
    return true;
  }

  TraceFormat format() const override { return TraceFormat::kClf; }

 private:
  std::string path_;
  ClfLoadOptions options_;
};

class BinaryTraceSource final : public TraceSource {
 public:
  explicit BinaryTraceSource(std::string path) : path_(std::move(path)) {}

  bool load(Trace& out, TraceLoadStats& stats, std::string& error) override {
    auto mapping = util::MmapFile::open(path_, error);
    if (!mapping) return false;
    mapping->advise_sequential();
    // Binary containers preserve the order they were written in, and
    // open() rejects one whose time column decreases, so no re-sort here.
    if (!load_binary_trace(mapping->bytes(), out, error)) {
      error = path_ + ": " + error;
      return false;
    }
    stats.format = TraceFormat::kBinary;
    stats.backing = TraceBacking::kMmap;
    stats.requests = out.size();
    return true;
  }

  TraceFormat format() const override { return TraceFormat::kBinary; }

 private:
  std::string path_;
};

class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(LogProfile profile)
      : profile_(std::move(profile)) {}

  bool load(Trace& out, TraceLoadStats& stats, std::string& error) override {
    (void)error;
    SyntheticWorkload workload = generate(profile_);
    out = std::move(workload.trace);
    out.sort_by_time();
    stats.format = TraceFormat::kSynthetic;
    stats.backing = TraceBacking::kGenerated;
    stats.requests = out.size();
    return true;
  }

  TraceFormat format() const override { return TraceFormat::kSynthetic; }

 private:
  LogProfile profile_;
};

// Parse "synthetic:<profile>[:<scale>]" into a profile.
std::unique_ptr<TraceSource> open_synthetic(std::string_view spec,
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
      return nullptr;
    }
    profile = profile_by_name(name, scale);
  }
  if (!profile) {
    error = "unknown synthetic profile '" + std::string(name) +
            "' (aiusa|marimba|apache|sun|att_client|digital_client)";
    return nullptr;
  }
  return std::make_unique<SyntheticTraceSource>(std::move(*profile));
}

// Read up to the magic's worth of leading bytes; false if unreadable.
bool read_prefix(const std::string& path, std::string& prefix,
                 std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = path + ": cannot open";
    return false;
  }
  char buffer[8] = {};
  in.read(buffer, sizeof(buffer));
  prefix.assign(buffer, static_cast<std::size_t>(in.gcount()));
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
    case TraceBacking::kReadCopy: return "read-copy";
    case TraceBacking::kMmap: return "mmap";
    case TraceBacking::kStream: return "stream";
    case TraceBacking::kGenerated: return "generated";
  }
  return "read-copy";
}

std::unique_ptr<TraceSource> open_trace_source(
    const std::string& spec, const TraceSourceOptions& options,
    std::string& error) {
  TraceFormat format = options.format;
  if (format == TraceFormat::kAuto) {
    if (spec.starts_with(kSyntheticPrefix)) {
      format = TraceFormat::kSynthetic;
    } else {
      std::string prefix;
      if (!read_prefix(spec, prefix, error)) return nullptr;
      format = looks_like_binary_trace(prefix) ? TraceFormat::kBinary
                                               : TraceFormat::kClf;
    }
  }
  switch (format) {
    case TraceFormat::kSynthetic: {
      if (!spec.starts_with(kSyntheticPrefix)) {
        error = "synthetic trace specs look like synthetic:<profile>[:scale]";
        return nullptr;
      }
      return open_synthetic(spec, error);
    }
    case TraceFormat::kBinary:
      return std::make_unique<BinaryTraceSource>(spec);
    case TraceFormat::kClf:
      return std::make_unique<ClfTraceSource>(spec, options.clf);
    case TraceFormat::kAuto: break;  // resolved above
  }
  error = "unresolved trace format";
  return nullptr;
}

bool load_trace(const std::string& spec, const TraceSourceOptions& options,
                Trace& out, TraceLoadStats& stats, std::string& error) {
  auto source = open_trace_source(spec, options, error);
  if (!source) return false;
  return source->load(out, stats, error);
}

}  // namespace piggyweb::trace
