// piggyweb_convert — convert traces between formats. The usual direction
// is CLF text (or a synthetic spec) to the "PIGGYTRC" columnar binary
// container, which piggyweb_evaluate then replays zero-copy via mmap;
// binary back to CLF recovers a text log for external tools, written
// window by window straight off the mapped container.
//
//   piggyweb_convert --in=access.log --out=access.trc
//   piggyweb_convert --in=access.trc --out=access.log --to=clf
//   piggyweb_convert --in=synthetic:aiusa:0.05 --out=aiusa.trc --verify
//
// --verify (binary output only) maps the written container back and
// requires it to reproduce the source trace bit-exactly: same request
// columns, same string tables, same content fingerprint.
#include <cstdio>
#include <fstream>
#include <memory>

#include "cli_common.h"
#include "persist/codec.h"
#include "trace/binary.h"
#include "trace/clf.h"
#include "trace_load.h"
#include "util/mmap_file.h"

using namespace piggyweb;

namespace {

// Field-by-field equality of two traces (requests and string tables).
// Separate from the fingerprint check so a mismatch is diagnosable.
bool traces_identical(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.requests()[i];
    const auto& y = b.requests()[i];
    if (x.time != y.time || x.source != y.source || x.server != y.server ||
        x.path != y.path || x.method != y.method || x.status != y.status ||
        x.size != y.size || x.last_modified != y.last_modified) {
      return false;
    }
  }
  const auto tables_equal = [](const util::InternTable& s,
                               const util::InternTable& t) {
    if (s.size() != t.size()) return false;
    for (std::size_t id = 0; id < s.size(); ++id) {
      if (s.str(static_cast<util::InternId>(id)) !=
          t.str(static_cast<util::InternId>(id))) {
        return false;
      }
    }
    return true;
  };
  return tables_equal(a.sources(), b.sources()) &&
         tables_equal(a.servers(), b.servers()) &&
         tables_equal(a.paths(), b.paths());
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "convert a trace between CLF text and the PIGGYTRC binary container");
  tools::add_trace_flags(flags, "in");
  flags.add_string("out", "", "output file (required)");
  flags.add_string("to", "binary", "output format: binary|clf");
  flags.add_bool("verify", false,
                 "binary output: map the written file back and require a "
                 "bit-exact round trip");
  tools::add_observability_flags(flags);
  if (!flags.parse(argc, argv)) return 2;
  const auto run_scope =
      tools::make_run_scope(flags, "piggyweb_convert", argc, argv);

  const auto out_path = flags.get_string("out");
  if (out_path.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  const auto to = flags.get_string("to");
  if (to != "binary" && to != "clf") {
    std::fprintf(stderr, "unknown --to '%s' (binary|clf)\n", to.c_str());
    return 2;
  }
  const bool verify = flags.get_bool("verify");
  if (verify && to != "binary") {
    // CLF does not carry server names or Last-Modified, so only the
    // binary container can promise a bit-exact round trip.
    std::fprintf(stderr, "--verify requires --to=binary\n");
    return 2;
  }

  if (to == "clf") {
    std::unique_ptr<trace::TraceView> view;
    trace::TraceLoadStats load_stats;
    if (const int rc = tools::load_view_from_flags(flags, stdout, view, "in",
                                                   &load_stats);
        rc != 0) {
      return rc;
    }
    if (run_scope != nullptr) {
      run_scope->note("trace", tools::trace_stats_note(load_stats));
    }
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    const auto loss = trace::write_clf(out, *view);
    std::printf("wrote %s (clf, %zu requests)\n", out_path.c_str(),
                view->request_count());
    tools::warn_clf_loss(out_path, loss);
    return 0;
  }

  trace::Trace trace;
  trace::TraceLoadStats load_stats;
  if (const int rc = tools::load_trace_from_flags(flags, stdout, trace, "in",
                                                  &load_stats);
      rc != 0) {
    return rc;
  }
  if (run_scope != nullptr) {
    run_scope->note("trace", tools::trace_stats_note(load_stats));
  }

  const auto bytes = trace::serialize_binary_trace(trace);
  std::string error;
  if (!persist::write_file_bytes(out_path, bytes, error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("wrote %s (binary, %zu requests, %zu bytes, checksum %s)\n",
              out_path.c_str(), trace.size(), bytes.size(),
              persist::checksum_hex(persist::snapshot_checksum(bytes))
                  .c_str());

  if (verify) {
    auto mapping = util::MmapFile::open(out_path, error);
    if (!mapping) {
      std::fprintf(stderr, "verify: %s\n", error.c_str());
      return 1;
    }
    trace::Trace reloaded;
    if (!trace::load_binary_trace(mapping->bytes(), reloaded, error)) {
      std::fprintf(stderr, "verify: %s: %s\n", out_path.c_str(),
                   error.c_str());
      return 1;
    }
    if (!traces_identical(trace, reloaded) ||
        trace::trace_content_fingerprint(reloaded) !=
            trace::trace_content_fingerprint(trace)) {
      std::fprintf(stderr, "verify: %s does not round-trip the input\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("verified: round trip is bit-exact\n");
  }
  return 0;
}
