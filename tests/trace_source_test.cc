// Trace ingestion (trace/source.h): format-name parsing, auto-sniffing
// (synthetic: prefix, PIGGYTRC magic, CLF fallback), synthetic-spec
// validation, pinned formats, and the property the whole ingestion layer
// exists for — the same requests loaded from CLF text and from the binary
// container are field-identical with equal content fingerprints.
#include "trace/source.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "persist/codec.h"
#include "trace/binary.h"
#include "trace/clf.h"

namespace piggyweb {
namespace {

// A trace that CLF can represent losslessly: one server name (CLF logs
// don't name their server; the loader stamps --server-name on every
// line) and no Last-Modified values.
trace::Trace make_clf_trace() {
  trace::Trace t;
  t.add({100}, "10.0.0.1", "server", "/index.html", trace::Method::kGet, 200,
        1024);
  t.add({130}, "10.0.0.2", "server", "/img/logo.gif", trace::Method::kGet,
        200, 4096);
  t.add({160}, "10.0.0.1", "server", "/about.html", trace::Method::kHead,
        304, 0);
  return t;
}

class TraceSourceFiles : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    return ::testing::TempDir() + "trace_source_" + name;
  }

  std::string write_clf(const trace::Trace& t, const std::string& name) {
    const auto file = path(name);
    std::ofstream out(file);
    trace::write_clf(out, t);
    return file;
  }

  std::string write_binary(const trace::Trace& t, const std::string& name) {
    const auto file = path(name);
    std::string error;
    EXPECT_TRUE(persist::write_file_bytes(
        file, trace::serialize_binary_trace(t), error))
        << error;
    return file;
  }
};

TEST(TraceSourceNames, ParseAndPrintRoundTrip) {
  for (const auto* name : {"auto", "clf", "binary", "synthetic"}) {
    trace::TraceFormat format;
    ASSERT_TRUE(trace::parse_trace_format(name, format)) << name;
    if (format != trace::TraceFormat::kAuto) {
      EXPECT_EQ(trace::trace_format_name(format), name);
    }
  }
  trace::TraceFormat format;
  EXPECT_FALSE(trace::parse_trace_format("", format));
  EXPECT_FALSE(trace::parse_trace_format("text", format));
  EXPECT_FALSE(trace::parse_trace_format("CLF", format));
}

TEST(TraceSourceNames, MissingFileIsAnError) {
  trace::Trace out;
  trace::TraceLoadStats stats;
  std::string error;
  EXPECT_FALSE(trace::load_trace("/nonexistent/trace.log", {}, out, stats,
                                 error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceSourceNames, SyntheticSpecValidation) {
  std::string error;
  trace::TraceSourceOptions options;
  trace::Trace out;
  trace::TraceLoadStats stats;
  // Unknown profile and malformed scales are refused before generating.
  for (const auto* spec : {"synthetic:nope:1.0", "synthetic:aiusa:-1",
                           "synthetic:aiusa:0", "synthetic:aiusa:abc"}) {
    error.clear();
    EXPECT_FALSE(trace::load_trace(spec, options, out, stats, error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // A good spec loads a deterministic, time-sorted workload.
  ASSERT_TRUE(
      trace::load_trace("synthetic:aiusa:0.01", options, out, stats, error))
      << error;
  EXPECT_EQ(stats.format, trace::TraceFormat::kSynthetic);
  EXPECT_GT(out.size(), 0u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out.requests()[i - 1].time, out.requests()[i].time);
  }
  trace::Trace again;
  ASSERT_TRUE(trace::load_trace("synthetic:aiusa:0.01", options, again,
                                stats, error));
  EXPECT_EQ(trace::trace_content_fingerprint(out),
            trace::trace_content_fingerprint(again));
}

TEST_F(TraceSourceFiles, AutoSniffsClfAndBinary) {
  const auto t = make_clf_trace();
  const auto clf_file = write_clf(t, "sniff.log");
  const auto bin_file = write_binary(t, "sniff.trc");

  trace::TraceSourceOptions options;  // format = kAuto
  std::string error;
  trace::TraceLoadStats stats;
  trace::Trace from_clf;
  ASSERT_TRUE(trace::load_trace(clf_file, options, from_clf, stats, error))
      << error;
  EXPECT_EQ(stats.format, trace::TraceFormat::kClf);
  trace::Trace from_bin;
  ASSERT_TRUE(trace::load_trace(bin_file, options, from_bin, stats, error))
      << error;
  EXPECT_EQ(stats.format, trace::TraceFormat::kBinary);

  std::remove(clf_file.c_str());
  std::remove(bin_file.c_str());
}

TEST_F(TraceSourceFiles, ClfAndBinaryLoadsAreEquivalent) {
  const auto t = make_clf_trace();
  const auto clf_file = write_clf(t, "equiv.log");

  trace::TraceSourceOptions options;
  std::string error;
  trace::TraceLoadStats stats;
  trace::Trace from_clf;
  ASSERT_TRUE(trace::load_trace(clf_file, options, from_clf, stats, error))
      << error;
  EXPECT_EQ(stats.requests, t.size());

  // Binary is produced from the CLF-loaded trace, mirroring
  // piggyweb_convert; the two loads must then agree field for field.
  const auto bin_file = write_binary(from_clf, "equiv.trc");
  trace::Trace from_bin;
  ASSERT_TRUE(trace::load_trace(bin_file, options, from_bin, stats, error))
      << error;

  ASSERT_EQ(from_clf.size(), from_bin.size());
  for (std::size_t i = 0; i < from_clf.size(); ++i) {
    const auto& x = from_clf.requests()[i];
    const auto& y = from_bin.requests()[i];
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.source, y.source);
    EXPECT_EQ(x.server, y.server);
    EXPECT_EQ(x.path, y.path);
    EXPECT_EQ(x.method, y.method);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.size, y.size);
    EXPECT_EQ(x.last_modified, y.last_modified);
  }
  EXPECT_EQ(trace::trace_content_fingerprint(from_clf),
            trace::trace_content_fingerprint(from_bin));

  std::remove(clf_file.c_str());
  std::remove(bin_file.c_str());
}

TEST_F(TraceSourceFiles, PinnedFormatOverridesSniffing) {
  const auto t = make_clf_trace();
  const auto bin_file = write_binary(t, "pinned.trc");

  // Pinned binary on a binary file: fine.
  trace::TraceSourceOptions options;
  options.format = trace::TraceFormat::kBinary;
  std::string error;
  trace::TraceLoadStats stats;
  trace::Trace out;
  ASSERT_TRUE(trace::load_trace(bin_file, options, out, stats, error))
      << error;
  EXPECT_EQ(out.size(), t.size());

  // Pinned CLF on a binary file: every "line" is garbage, so the load
  // yields an empty trace rather than misinterpreted requests.
  options.format = trace::TraceFormat::kClf;
  trace::Trace misread;
  if (trace::load_trace(bin_file, options, misread, stats, error)) {
    EXPECT_TRUE(misread.empty());
    EXPECT_GT(stats.skipped_malformed, 0u);
  }

  std::remove(bin_file.c_str());
}

}  // namespace
}  // namespace piggyweb
