// PIGGYTRC columnar container: canonical round trips, batch decoding,
// transform slices through the binary format, and — the untrusted-input
// half — rejection of every corruption class the reader documents:
// truncation, bit flips, column-length mismatches, out-of-range ids and
// methods, decreasing times, duplicate string-table entries, wrong
// magic/version.
#include "trace/binary.h"

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "persist/codec.h"
#include "trace/transform.h"
#include "util/hash.h"

namespace piggyweb {
namespace {

// Section order as documented in trace/binary.h; the crafted-container
// helpers below rebuild files section by section in this order.
constexpr std::string_view kSections[] = {
    "header",      "strings.sources", "strings.servers",
    "strings.paths", "col.time",      "col.source",
    "col.server",  "col.path",        "col.method",
    "col.status",  "col.size",        "col.last_modified"};
constexpr std::size_t kSectionCount = 12;

trace::Trace make_trace() {
  trace::Trace t;
  t.add({100}, "10.0.0.1", "www.a.org", "/index.html", trace::Method::kGet,
        200, 1024, 90);
  t.add({105}, "10.0.0.2", "www.a.org", "/img/logo.gif", trace::Method::kGet,
        200, 4096);
  t.add({110}, "10.0.0.1", "www.b.org", "/form", trace::Method::kPost, 302,
        0, -1);
  t.add({120}, "10.0.0.3", "www.a.org", "/index.html", trace::Method::kHead,
        304, 0, 90);
  t.add({130}, "10.0.0.2", "www.b.org", "/data.bin", trace::Method::kGet,
        404, 17, 125);
  return t;
}

void expect_traces_equal(const trace::Trace& a, const trace::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.requests()[i];
    const auto& y = b.requests()[i];
    EXPECT_EQ(x.time, y.time) << "request " << i;
    EXPECT_EQ(x.source, y.source) << "request " << i;
    EXPECT_EQ(x.server, y.server) << "request " << i;
    EXPECT_EQ(x.path, y.path) << "request " << i;
    EXPECT_EQ(x.method, y.method) << "request " << i;
    EXPECT_EQ(x.status, y.status) << "request " << i;
    EXPECT_EQ(x.size, y.size) << "request " << i;
    EXPECT_EQ(x.last_modified, y.last_modified) << "request " << i;
  }
  const auto expect_tables_equal = [](const util::InternTable& s,
                                      const util::InternTable& u) {
    ASSERT_EQ(s.size(), u.size());
    for (std::size_t id = 0; id < s.size(); ++id) {
      EXPECT_EQ(s.str(static_cast<util::InternId>(id)),
                u.str(static_cast<util::InternId>(id)));
    }
  };
  expect_tables_equal(a.sources(), b.sources());
  expect_tables_equal(a.servers(), b.servers());
  expect_tables_equal(a.paths(), b.paths());
}

// Rebuild a valid container from mutated section payloads: parse the
// canonical bytes, let `mutate` edit the payload vector, recompute the
// content fingerprint the way the reader does, patch the header, and
// re-envelope. The result has valid checksums everywhere, so only the
// reader's *structural* validation can reject it — which is exactly what
// these tests target.
std::string rebuild_with(
    const std::string& bytes,
    const std::function<void(std::vector<std::string>&)>& mutate) {
  std::string error;
  auto parsed = persist::SnapshotReader::parse(
      bytes, error, trace::kBinaryTraceMagic, trace::kBinaryTraceVersion);
  EXPECT_TRUE(parsed.has_value()) << error;
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    payloads.emplace_back(parsed->sections()[i].payload);
  }
  mutate(payloads);
  std::uint64_t fp = util::fnv1a("piggyweb-trace-columns");
  for (std::size_t i = 1; i < kSectionCount; ++i) {
    fp = util::hash_combine(fp, util::fnv1a(payloads[i]));
  }
  // Header = u64 request count (kept) + u64 fingerprint (recomputed).
  persist::ByteReader header(payloads[0]);
  const std::uint64_t count = header.u64();
  persist::ByteWriter patched;
  patched.u64(count);
  patched.u64(fp);
  payloads[0] = patched.take();
  persist::SnapshotWriter writer;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    writer.add_section(kSections[i], std::move(payloads[i]));
  }
  return writer.finish(trace::kBinaryTraceMagic, trace::kBinaryTraceVersion);
}

TEST(TraceBinary, RoundTripIsExact) {
  const auto t = make_trace();
  const auto bytes = trace::serialize_binary_trace(t);
  trace::Trace reloaded;
  std::string error;
  ASSERT_TRUE(trace::load_binary_trace(bytes, reloaded, error)) << error;
  expect_traces_equal(t, reloaded);
  EXPECT_EQ(trace::trace_content_fingerprint(t),
            trace::trace_content_fingerprint(reloaded));
}

TEST(TraceBinary, SerializationIsCanonical) {
  const auto t = make_trace();
  const auto bytes = trace::serialize_binary_trace(t);
  EXPECT_EQ(bytes, trace::serialize_binary_trace(t));
  // Re-serializing the round-tripped trace reproduces the same file, so
  // the whole-file checksum is a stable trace identity.
  trace::Trace reloaded;
  std::string error;
  ASSERT_TRUE(trace::load_binary_trace(bytes, reloaded, error)) << error;
  EXPECT_EQ(bytes, trace::serialize_binary_trace(reloaded));
}

TEST(TraceBinary, EmptyTraceRoundTrips) {
  const trace::Trace empty;
  const auto bytes = trace::serialize_binary_trace(empty);
  trace::Trace reloaded;
  std::string error;
  ASSERT_TRUE(trace::load_binary_trace(bytes, reloaded, error)) << error;
  EXPECT_TRUE(reloaded.empty());
  EXPECT_EQ(trace::trace_content_fingerprint(empty),
            trace::trace_content_fingerprint(reloaded));
}

TEST(TraceBinary, MagicSniff) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  EXPECT_TRUE(trace::looks_like_binary_trace(bytes));
  EXPECT_FALSE(trace::looks_like_binary_trace("PIGGYSNP........"));
  EXPECT_FALSE(trace::looks_like_binary_trace("PIGGYT"));  // too short
  EXPECT_FALSE(trace::looks_like_binary_trace(
      "10.0.0.1 - - [01/Jan/1998:00:00:00 +0000] \"GET / HTTP/1.0\" 200 1"));
}

TEST(TraceBinary, ReaderCountsAndBatchDecode) {
  const auto t = make_trace();
  const auto bytes = trace::serialize_binary_trace(t);
  std::string error;
  const auto reader = trace::BinaryTraceReader::open(bytes, error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->request_count(), t.size());
  EXPECT_EQ(reader->source_count(), t.sources().size());
  EXPECT_EQ(reader->server_count(), t.servers().size());
  EXPECT_EQ(reader->path_count(), t.paths().size());
  EXPECT_EQ(reader->content_fingerprint(),
            trace::trace_content_fingerprint(t));

  // Decode in batches of 3 over 5 requests: 3, then 2, then 0.
  std::vector<trace::Request> buf(3);
  std::vector<trace::Request> decoded;
  std::size_t begin = 0;
  while (true) {
    const auto n = reader->read_batch(begin, buf);
    if (n == 0) break;
    decoded.insert(decoded.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
    begin += n;
  }
  ASSERT_EQ(decoded.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(decoded[i].time, t.requests()[i].time);
    EXPECT_EQ(decoded[i].path, t.requests()[i].path);
    EXPECT_EQ(decoded[i].size, t.requests()[i].size);
    EXPECT_EQ(decoded[i].last_modified, t.requests()[i].last_modified);
  }
  EXPECT_EQ(reader->read_batch(t.size() + 10, buf), 0u);
}

TEST(TraceBinary, TransformSlicesRoundTrip) {
  const auto t = make_trace();
  // Transform outputs share the parent's intern tables verbatim —
  // including entries no surviving request references — and the container
  // must preserve exactly that, or volumes built on one slice would stop
  // applying to another.
  const auto [train, test] = trace::split_at_fraction(t, 0.5);
  const auto popular = trace::filter_unpopular(t, 2);
  for (const auto* slice : {&train, &test, &popular}) {
    const auto bytes = trace::serialize_binary_trace(*slice);
    trace::Trace reloaded;
    std::string error;
    ASSERT_TRUE(trace::load_binary_trace(bytes, reloaded, error)) << error;
    expect_traces_equal(*slice, reloaded);
  }
  EXPECT_EQ(train.paths().size(), t.paths().size());
}

TEST(TraceBinary, EveryTruncationRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  std::string error;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    trace::Trace out;
    EXPECT_FALSE(
        trace::load_binary_trace(bytes.substr(0, len), out, error))
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(TraceBinary, EveryBitFlipRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  std::string error;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      trace::Trace out;
      EXPECT_FALSE(trace::load_binary_trace(mutated, out, error))
          << "flip of byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(TraceBinary, ColumnLengthMismatchRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  // Drop one i64 cell from col.time: the envelope stays valid (checksums
  // recomputed), so only the count-vs-payload cross-check can catch it.
  const auto crafted = rebuild_with(bytes, [](auto& payloads) {
    payloads[4].resize(payloads[4].size() - 8);
  });
  trace::Trace out;
  std::string error;
  EXPECT_FALSE(trace::load_binary_trace(crafted, out, error));
  EXPECT_NE(error.find("does not match the header request count"),
            std::string::npos)
      << error;
}

TEST(TraceBinary, OutOfRangeMethodRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  const auto crafted = rebuild_with(
      bytes, [](auto& payloads) { payloads[8][0] = 7; });
  trace::Trace out;
  std::string error;
  EXPECT_FALSE(trace::load_binary_trace(crafted, out, error));
}

TEST(TraceBinary, DecreasingTimeRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  // Swap the first two col.time cells (100, 105): every checksum and the
  // fingerprint are rebuilt, so only the time-order check can catch it.
  const auto crafted = rebuild_with(bytes, [](auto& payloads) {
    auto& time = payloads[4];
    const std::string first = time.substr(0, 8);
    time.replace(0, 8, time.substr(8, 8));
    time.replace(8, 8, first);
  });
  std::string error;
  EXPECT_FALSE(trace::BinaryTraceReader::open(crafted, error).has_value());
  EXPECT_EQ(error, "trace container is not time-sorted");
}

TEST(TraceBinary, EqualTimesAccepted) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  // Copy the first col.time cell over the second: 100, 100, 110, ...
  const auto crafted = rebuild_with(bytes, [](auto& payloads) {
    auto& time = payloads[4];
    time.replace(8, 8, time.substr(0, 8));
  });
  trace::Trace out;
  std::string error;
  ASSERT_TRUE(trace::load_binary_trace(crafted, out, error)) << error;
  EXPECT_EQ(out.requests()[1].time, out.requests()[0].time);
}

TEST(TraceBinary, OutOfRangeInternIdRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  const auto crafted = rebuild_with(bytes, [](auto& payloads) {
    // First col.path cell -> 0xffffffff, far past the path table.
    for (std::size_t b = 0; b < 4; ++b) payloads[7][b] = static_cast<char>(0xff);
  });
  trace::Trace out;
  std::string error;
  EXPECT_FALSE(trace::load_binary_trace(crafted, out, error));
}

TEST(TraceBinary, DuplicateStringTableEntryRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  const auto original = make_trace();
  const auto path_count = original.paths().size();
  const auto crafted =
      rebuild_with(bytes, [path_count](auto& payloads) {
        // Same count, but every entry is the same string: ids would no
        // longer renumber 0..n-1 when re-interned.
        persist::ByteWriter table;
        table.u32(static_cast<std::uint32_t>(path_count));
        for (std::size_t i = 0; i < path_count; ++i) table.str("/dup");
        payloads[3] = table.take();
      });
  std::string error;
  // Structure is fine, so open() accepts it...
  ASSERT_TRUE(trace::BinaryTraceReader::open(crafted, error).has_value())
      << error;
  // ...but materializing must refuse to silently collapse intern ids.
  trace::Trace out;
  EXPECT_FALSE(trace::load_binary_trace(crafted, out, error));
  EXPECT_NE(error.find("duplicate string"), std::string::npos) << error;
}

TEST(TraceBinary, WrongMagicAndVersionRejected) {
  const auto bytes = trace::serialize_binary_trace(make_trace());
  std::string error;
  auto parsed = persist::SnapshotReader::parse(
      bytes, error, trace::kBinaryTraceMagic, trace::kBinaryTraceVersion);
  ASSERT_TRUE(parsed.has_value()) << error;
  persist::SnapshotWriter writer;
  for (const auto& section : parsed->sections()) {
    writer.add_section(section.name, std::string(section.payload));
  }
  trace::Trace out;
  // A structurally identical file under the snapshot magic is not a
  // trace; neither is a future container version.
  EXPECT_FALSE(trace::load_binary_trace(
      writer.finish(persist::kSnapshotMagic, trace::kBinaryTraceVersion),
      out, error));
  EXPECT_FALSE(trace::load_binary_trace(
      writer.finish(trace::kBinaryTraceMagic, trace::kBinaryTraceVersion + 1),
      out, error));
}

}  // namespace
}  // namespace piggyweb
