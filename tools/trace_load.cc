#include "trace_load.h"

#include <string>

namespace piggyweb::tools {

void add_trace_flags(FlagSet& flags, const char* primary) {
  flags.add_string(primary, "",
                   "input trace: CLF file, PIGGYTRC binary container, or "
                   "synthetic:<profile>[:scale] (required)");
  flags.add_string("trace-format", "auto",
                   "input format: auto|clf|binary|synthetic");
  flags.add_string("server-name", "server",
                   "origin name recorded for CLF server logs");
  flags.add_bool("keep-uncachable", false,
                 "keep cgi/query URLs instead of the paper's cleanup");
}

bool trace_options_from_flags(const FlagSet& flags,
                              trace::TraceSourceOptions& out) {
  const auto format_name = flags.get_string("trace-format");
  if (!trace::parse_trace_format(format_name, out.format)) {
    std::fprintf(stderr,
                 "unknown --trace-format '%s' (auto|clf|binary|synthetic)\n",
                 format_name.c_str());
    return false;
  }
  out.clf.server_name = flags.get_string("server-name");
  out.clf.drop_uncachable = !flags.get_bool("keep-uncachable");
  return true;
}

namespace {

void print_parsed_line(std::FILE* info, const trace::TraceLoadStats& stats) {
  std::fprintf(info,
               "parsed %zu requests (%zu malformed, %zu filtered, "
               "format %s, backing %s)\n",
               stats.requests, stats.skipped_malformed,
               stats.skipped_filtered,
               std::string(trace::trace_format_name(stats.format)).c_str(),
               std::string(trace::trace_backing_name(stats.backing)).c_str());
}

}  // namespace

int load_trace_from_flags(const FlagSet& flags, std::FILE* info,
                          trace::Trace& out, const char* primary,
                          trace::TraceLoadStats* stats_out) {
  const auto spec = flags.get_string(primary);
  if (spec.empty()) {
    std::fprintf(stderr, "--%s is required\n", primary);
    return 2;
  }
  trace::TraceSourceOptions options;
  if (!trace_options_from_flags(flags, options)) return 2;
  trace::TraceLoadStats stats;
  std::string error;
  if (!trace::load_trace(spec, options, out, stats, error)) {
    std::fprintf(stderr, "cannot load %s: %s\n", spec.c_str(),
                 error.c_str());
    return 1;
  }
  print_parsed_line(info, stats);
  if (stats_out != nullptr) *stats_out = stats;
  if (out.empty()) {
    std::fprintf(stderr, "%s holds no usable requests\n", spec.c_str());
    return 1;
  }
  return 0;
}

int load_view_from_flags(const FlagSet& flags, std::FILE* info,
                         std::unique_ptr<trace::TraceView>& out,
                         const char* primary,
                         trace::TraceLoadStats* stats_out) {
  const auto spec = flags.get_string(primary);
  if (spec.empty()) {
    std::fprintf(stderr, "--%s is required\n", primary);
    return 2;
  }
  trace::TraceSourceOptions options;
  if (!trace_options_from_flags(flags, options)) return 2;
  trace::TraceLoadStats stats;
  std::string error;
  out = trace::open_trace_view(spec, options, stats, error);
  if (out == nullptr) {
    std::fprintf(stderr, "cannot load %s: %s\n", spec.c_str(),
                 error.c_str());
    return 1;
  }
  print_parsed_line(info, stats);
  if (stats_out != nullptr) *stats_out = stats;
  if (out->request_count() == 0) {
    std::fprintf(stderr, "%s holds no usable requests\n", spec.c_str());
    return 1;
  }
  return 0;
}

obs::Json trace_stats_note(const trace::TraceLoadStats& stats) {
  auto note = obs::Json::object();
  note.set("requests", static_cast<std::uint64_t>(stats.requests));
  note.set("skipped_malformed",
           static_cast<std::uint64_t>(stats.skipped_malformed));
  note.set("skipped_filtered",
           static_cast<std::uint64_t>(stats.skipped_filtered));
  note.set("format", std::string(trace::trace_format_name(stats.format)));
  note.set("backing", std::string(trace::trace_backing_name(stats.backing)));
  return note;
}

void warn_clf_loss(const std::string& path, const trace::ClfLoss& loss) {
  if (loss.servers == 0 && loss.last_modified == 0) return;
  std::fprintf(stderr,
               "warning: %s lost what CLF cannot hold: %zu distinct servers "
               "merged into one, %zu known Last-Modified values dropped\n",
               path.c_str(), loss.servers, loss.last_modified);
}

}  // namespace piggyweb::tools
