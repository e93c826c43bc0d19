// Randomized round-trip and robustness tests for every wire codec:
// chunked transfer-coding, HTTP requests and responses, Piggy-filter /
// P-volume / Piggy-hits / Piggy-validate / P-validate grammars, and CLF
// lines. Deterministic seeds; two properties per codec: (1) serialize ->
// parse is the identity, (2) parsing mutated bytes never crashes and
// either fails cleanly or yields a well-formed value.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "http/chunked.h"
#include "http/message.h"
#include "http/piggy_headers.h"
#include "persist/codec.h"
#include "trace/binary.h"
#include "trace/clf.h"
#include "util/rng.h"

namespace piggyweb {
namespace {

std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string out;
  const auto len = rng.below(max_len + 1);
  out.reserve(len);
  for (std::uint64_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.below(256)));
  }
  return out;
}

std::string random_path(util::Rng& rng) {
  std::string path;
  const auto depth = rng.below(4);
  for (std::uint64_t d = 0; d <= depth; ++d) {
    path += "/d" + std::to_string(rng.below(10));
  }
  path += "/r" + std::to_string(rng.below(1000)) + ".html";
  return path;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};
};

TEST_P(CodecFuzz, ChunkedRoundTripArbitraryBytes) {
  for (int i = 0; i < 50; ++i) {
    const auto body = random_bytes(rng_, 5000);
    http::HeaderMap trailers;
    if (rng_.chance(0.5)) trailers.add("P-volume", "vid=1");
    const auto chunk_size = 1 + rng_.below(512);
    const auto encoded = http::chunk_encode(body, trailers, chunk_size);
    http::ChunkedDecode decoded;
    ASSERT_TRUE(http::chunk_decode(encoded, decoded)) << "iteration " << i;
    EXPECT_EQ(decoded.body, body);
    EXPECT_EQ(decoded.consumed, encoded.size());
  }
}

TEST_P(CodecFuzz, ChunkedDecodeSurvivesMutation) {
  for (int i = 0; i < 200; ++i) {
    http::HeaderMap trailers;
    trailers.add("P-volume", "vid=1; e=\"/a 1 2\"");
    auto encoded = http::chunk_encode(random_bytes(rng_, 300), trailers, 64);
    // Flip a few bytes.
    for (int flips = 0; flips < 3; ++flips) {
      encoded[rng_.below(encoded.size())] =
          static_cast<char>(rng_.below(256));
    }
    http::ChunkedDecode decoded;
    http::chunk_decode(encoded, decoded);  // must not crash or hang
  }
}

TEST_P(CodecFuzz, ResponseRoundTripRandomBodies) {
  for (int i = 0; i < 50; ++i) {
    http::Response response;
    response.status = 200;
    response.reason = "OK";
    response.body = random_bytes(rng_, 2000);
    // CRLF-rich bodies exercise framing; Content-Length vs chunked both.
    if (rng_.chance(0.5)) {
      response.chunked = true;
      response.headers.add("Transfer-Encoding", "chunked");
      response.trailers.add("P-volume", "vid=2");
    } else {
      response.headers.add("Content-Length",
                           std::to_string(response.body.size()));
    }
    http::ParseError error;
    const auto parsed = http::parse_response(response.serialize(), error);
    ASSERT_TRUE(parsed.has_value()) << error.message;
    EXPECT_EQ(parsed->response.body, response.body);
    EXPECT_EQ(parsed->response.status, 200);
  }
}

TEST_P(CodecFuzz, ParsersRejectGarbageWithoutCrashing) {
  for (int i = 0; i < 300; ++i) {
    const auto garbage = random_bytes(rng_, 400);
    http::ParseError error;
    http::parse_request(garbage, error);
    http::parse_response(garbage, error);
    http::ChunkedDecode decoded;
    http::chunk_decode(garbage, decoded);
    http::parse_filter(garbage);
    util::InternTable paths;
    http::parse_pvolume(garbage, paths);
    http::parse_hits(garbage);
    http::parse_validate(garbage, paths);
    http::parse_validate_reply(garbage, paths);
    trace::parse_clf_line(garbage);
  }
}

TEST_P(CodecFuzz, FilterRoundTripRandomFields) {
  for (int i = 0; i < 100; ++i) {
    core::ProxyFilter filter;
    filter.enabled = rng_.chance(0.9);
    filter.max_elements = static_cast<std::uint32_t>(rng_.below(1000));
    const auto n_rpv = rng_.below(8);
    for (std::uint64_t v = 0; v < n_rpv; ++v) {
      filter.rpv.push_back(
          static_cast<core::VolumeId>(rng_.below(32768)));
    }
    if (rng_.chance(0.5)) {
      filter.probability_threshold = rng_.uniform();
    }
    if (rng_.chance(0.5)) filter.max_size = rng_.below(1 << 20);
    filter.allow_image = rng_.chance(0.8);
    filter.allow_other = rng_.chance(0.8);
    filter.min_access_count = static_cast<std::uint32_t>(rng_.below(100));

    const auto parsed = http::parse_filter(http::serialize_filter(filter));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->enabled, filter.enabled);
    if (!filter.enabled) continue;  // nopiggy drops the other fields
    EXPECT_EQ(parsed->max_elements, filter.max_elements);
    EXPECT_EQ(parsed->rpv, filter.rpv);
    EXPECT_EQ(parsed->probability_threshold.has_value(),
              filter.probability_threshold.has_value());
    if (filter.probability_threshold) {
      EXPECT_EQ(*parsed->probability_threshold,
                *filter.probability_threshold);
    }
    EXPECT_EQ(parsed->max_size, filter.max_size);
    EXPECT_EQ(parsed->allow_image, filter.allow_image);
    EXPECT_EQ(parsed->allow_other, filter.allow_other);
    EXPECT_EQ(parsed->min_access_count, filter.min_access_count);
  }
}

TEST_P(CodecFuzz, PVolumeRoundTripRandomMessages) {
  for (int i = 0; i < 100; ++i) {
    util::InternTable paths;
    core::PiggybackMessage message;
    message.volume =
        static_cast<core::VolumeId>(rng_.below(core::kMaxWireVolumeId + 1));
    const auto n = 1 + rng_.below(20);
    for (std::uint64_t e = 0; e < n; ++e) {
      message.elements.push_back(
          {paths.intern(random_path(rng_)), rng_.below(1 << 30),
           static_cast<std::int64_t>(rng_.below(1'000'000'000))});
    }
    util::InternTable other;
    const auto parsed =
        http::parse_pvolume(http::serialize_pvolume(message, paths), other);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->volume, message.volume);
    ASSERT_EQ(parsed->elements.size(), message.elements.size());
    for (std::size_t e = 0; e < message.elements.size(); ++e) {
      EXPECT_EQ(other.str(parsed->elements[e].resource),
                paths.str(message.elements[e].resource));
      EXPECT_EQ(parsed->elements[e].size, message.elements[e].size);
      EXPECT_EQ(parsed->elements[e].last_modified,
                message.elements[e].last_modified);
    }
  }
}

TEST_P(CodecFuzz, HitsRoundTripRandomCounts) {
  for (int i = 0; i < 100; ++i) {
    std::vector<core::VolumeHitCount> counts;
    const auto n = rng_.below(20);
    for (std::uint64_t c = 0; c < n; ++c) {
      counts.push_back(
          {static_cast<core::VolumeId>(rng_.below(core::kMaxWireVolumeId + 1)),
           static_cast<std::uint32_t>(rng_.below(std::uint64_t{1} << 32))});
    }
    const auto parsed = http::parse_hits(http::serialize_hits(counts));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      EXPECT_EQ((*parsed)[c].volume, counts[c].volume);
      EXPECT_EQ((*parsed)[c].hits, counts[c].hits);
    }
  }
}

// A Last-Modified value as PCV carries it: -1 (unknown) or a time.
std::int64_t random_last_modified(util::Rng& rng) {
  return rng.chance(0.2) ? -1
                         : static_cast<std::int64_t>(rng.below(2'000'000'000));
}

TEST_P(CodecFuzz, ValidateRoundTripRandomItems) {
  for (int i = 0; i < 100; ++i) {
    util::InternTable paths;
    std::vector<core::ValidationItem> items;
    const auto n = rng_.below(20);
    for (std::uint64_t e = 0; e < n; ++e) {
      items.push_back(
          {paths.intern(random_path(rng_)), random_last_modified(rng_)});
    }
    util::InternTable other;
    const auto parsed =
        http::parse_validate(http::serialize_validate(items, paths), other);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), items.size());
    for (std::size_t e = 0; e < items.size(); ++e) {
      EXPECT_EQ(other.str((*parsed)[e].resource),
                paths.str(items[e].resource));
      EXPECT_EQ((*parsed)[e].last_modified, items[e].last_modified);
    }
  }
}

TEST_P(CodecFuzz, ValidateReplyRoundTripRandomVerdicts) {
  for (int i = 0; i < 100; ++i) {
    util::InternTable paths;
    core::ValidationReply reply;
    const auto n_fresh = rng_.below(10);
    for (std::uint64_t e = 0; e < n_fresh; ++e) {
      reply.fresh.push_back(paths.intern(random_path(rng_)));
    }
    const auto n_stale = rng_.below(10);
    for (std::uint64_t e = 0; e < n_stale; ++e) {
      reply.stale.push_back(
          {paths.intern(random_path(rng_)), random_last_modified(rng_)});
    }
    util::InternTable other;
    const auto parsed = http::parse_validate_reply(
        http::serialize_validate_reply(reply, paths), other);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->fresh.size(), reply.fresh.size());
    for (std::size_t e = 0; e < reply.fresh.size(); ++e) {
      EXPECT_EQ(other.str(parsed->fresh[e]), paths.str(reply.fresh[e]));
    }
    ASSERT_EQ(parsed->stale.size(), reply.stale.size());
    for (std::size_t e = 0; e < reply.stale.size(); ++e) {
      EXPECT_EQ(other.str(parsed->stale[e].resource),
                paths.str(reply.stale[e].resource));
      EXPECT_EQ(parsed->stale[e].last_modified,
                reply.stale[e].last_modified);
    }
  }
}

// A header value as the grammar reads it back: printable ASCII with no
// CR or LF, and no blank at either end (the parser trims those).
std::string random_header_value(util::Rng& rng) {
  std::string value;
  const auto len = rng.below(40);
  for (std::uint64_t i = 0; i < len; ++i) {
    value.push_back(static_cast<char>(' ' + rng.below('~' - ' ' + 1)));
  }
  if (!value.empty() && value.front() == ' ') value.front() = 'a';
  if (!value.empty() && value.back() == ' ') value.back() = 'z';
  return value;
}

TEST_P(CodecFuzz, RequestRoundTripRandomMessages) {
  static constexpr trace::Method kMethods[] = {
      trace::Method::kGet, trace::Method::kPost, trace::Method::kHead};
  for (int i = 0; i < 100; ++i) {
    http::Request request;
    request.method = kMethods[rng_.below(3)];
    request.target = random_path(rng_);
    if (rng_.chance(0.3)) {
      request.target += "?q=" + std::to_string(rng_.below(1000));
    }
    request.version = rng_.chance(0.8) ? "HTTP/1.1" : "HTTP/1.0";
    if (rng_.chance(0.5)) request.body = random_bytes(rng_, 500);

    std::vector<std::pair<std::string, std::string>> fields;
    const auto n_plain = rng_.below(5);
    for (std::uint64_t h = 0; h < n_plain; ++h) {
      fields.emplace_back("X-h" + std::to_string(rng_.below(100)),
                          random_header_value(rng_));
    }
    if (rng_.chance(0.7)) {
      core::ProxyFilter filter;
      filter.max_elements = static_cast<std::uint32_t>(rng_.below(100));
      filter.rpv.push_back(static_cast<core::VolumeId>(rng_.below(32768)));
      if (rng_.chance(0.5)) filter.probability_threshold = rng_.uniform();
      fields.emplace_back(http::kPiggyFilterHeader,
                          http::serialize_filter(filter));
    }
    util::InternTable paths;
    if (rng_.chance(0.5)) {
      std::vector<core::ValidationItem> items;
      const auto n = 1 + rng_.below(5);
      for (std::uint64_t e = 0; e < n; ++e) {
        items.push_back(
            {paths.intern(random_path(rng_)), random_last_modified(rng_)});
      }
      fields.emplace_back(http::kPiggyValidateHeader,
                          http::serialize_validate(items, paths));
    }
    if (!request.body.empty() || rng_.chance(0.3)) {
      const auto at = rng_.below(fields.size() + 1);
      fields.emplace(fields.begin() + static_cast<std::ptrdiff_t>(at),
                     "Content-Length", std::to_string(request.body.size()));
    }
    for (const auto& [name, value] : fields) request.headers.add(name, value);

    const auto wire = request.serialize();
    http::ParseError error;
    const auto parsed = http::parse_request(wire, error);
    ASSERT_TRUE(parsed.has_value()) << error.message << "\n" << wire;
    EXPECT_EQ(parsed->consumed, wire.size());
    EXPECT_EQ(parsed->request.method, request.method);
    EXPECT_EQ(parsed->request.target, request.target);
    EXPECT_EQ(parsed->request.version, request.version);
    EXPECT_EQ(parsed->request.body, request.body);
    const auto& got = parsed->request.headers.fields();
    ASSERT_EQ(got.size(), fields.size());
    for (std::size_t h = 0; h < fields.size(); ++h) {
      EXPECT_EQ(got[h].name, fields[h].first);
      EXPECT_EQ(got[h].value, fields[h].second);
    }
  }
}

TEST_P(CodecFuzz, ClfRoundTripRandomEntries) {
  for (int i = 0; i < 100; ++i) {
    trace::ClfEntry entry;
    entry.host = "host-" + std::to_string(rng_.below(1000));
    entry.time = {static_cast<util::Seconds>(rng_.below(2'000'000'000))};
    entry.method =
        rng_.chance(0.8) ? trace::Method::kGet : trace::Method::kPost;
    entry.path = random_path(rng_);
    entry.status = rng_.chance(0.8) ? 200 : 304;
    entry.size = rng_.below(1 << 24);
    const auto parsed = trace::parse_clf_line(trace::format_clf_line(entry));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->host, entry.host);
    EXPECT_EQ(parsed->time.value, entry.time.value);
    EXPECT_EQ(parsed->method, entry.method);
    EXPECT_EQ(parsed->path, entry.path);
    EXPECT_EQ(parsed->status, entry.status);
    EXPECT_EQ(parsed->size, entry.size);
  }
}

// Snapshot container (persist/codec.h) -------------------------------------

// A random but well-formed snapshot: up to 6 sections with random names
// and payloads (including empty ones).
std::string random_snapshot(util::Rng& rng) {
  persist::SnapshotWriter writer;
  const auto sections = rng.below(7);
  for (std::uint64_t s = 0; s < sections; ++s) {
    writer.add_section("sec" + std::to_string(s), random_bytes(rng, 600));
  }
  return writer.finish();
}

TEST_P(CodecFuzz, SnapshotRoundTripRandomSections) {
  for (int i = 0; i < 50; ++i) {
    const auto file = random_snapshot(rng_);
    std::string error;
    const auto reader = persist::SnapshotReader::parse(file, error);
    ASSERT_TRUE(reader.has_value()) << error;
  }
}

TEST_P(CodecFuzz, SnapshotMutationsNeverParseAndNeverCrash) {
  // Bit flips, random-byte stomps, truncations, and extensions: the
  // whole-file checksum makes any byte-level difference detectable, so
  // every mutation must be rejected with an error — and, under the
  // address/undefined sanitizer lanes, without touching invalid memory.
  for (int i = 0; i < 100; ++i) {
    const auto file = random_snapshot(rng_);
    auto corrupt = file;
    switch (rng_.below(4)) {
      case 0: {  // single bit flip
        const auto pos = rng_.below(corrupt.size());
        corrupt[pos] = static_cast<char>(
            corrupt[pos] ^ (1 << rng_.below(8)));
        break;
      }
      case 1: {  // stomp a random run of bytes
        const auto pos = rng_.below(corrupt.size());
        const auto run = 1 + rng_.below(16);
        for (std::uint64_t b = 0; b < run && pos + b < corrupt.size(); ++b) {
          corrupt[pos + b] = static_cast<char>(rng_.below(256));
        }
        break;
      }
      case 2:  // truncate
        corrupt.resize(rng_.below(corrupt.size()));
        break;
      case 3:  // append garbage
        corrupt += random_bytes(rng_, 32) + "x";
        break;
    }
    if (corrupt == file) continue;  // stomp happened to rewrite same bytes
    std::string error;
    EXPECT_FALSE(persist::SnapshotReader::parse(corrupt, error).has_value())
        << "iteration " << i;
    EXPECT_FALSE(error.empty());
  }
}

TEST_P(CodecFuzz, SnapshotDuplicatedSectionsAreRejected) {
  // Splice a randomly chosen section in twice and re-checksum, so the file
  // is bytewise self-consistent and rejection is specifically the
  // duplicate-name check.
  for (int i = 0; i < 50; ++i) {
    const auto count = 1 + rng_.below(4);
    const auto duplicated = rng_.below(count);
    persist::ByteWriter body;
    body.u32(persist::kSnapshotVersion);
    body.u32(static_cast<std::uint32_t>(count + 1));
    for (std::uint64_t s = 0; s <= count; ++s) {
      // Visit `duplicated` twice; names repeat only for that index.
      const auto logical = s <= duplicated ? s : s - 1;
      const auto name = "sec" + std::to_string(logical);
      const auto payload = random_bytes(rng_, 64);
      body.u16(static_cast<std::uint16_t>(name.size()));
      for (const char c : name) body.u8(static_cast<std::uint8_t>(c));
      body.u64(payload.size());
      body.u64(persist::snapshot_checksum(payload));
      for (const char c : payload) body.u8(static_cast<std::uint8_t>(c));
    }
    std::string file(persist::kSnapshotMagic);
    file += body.bytes();
    persist::ByteWriter footer;
    footer.u64(persist::snapshot_checksum(file));
    file += footer.bytes();

    std::string error;
    EXPECT_FALSE(persist::SnapshotReader::parse(file, error).has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  }
}

TEST_P(CodecFuzz, SnapshotParserSurvivesArbitraryStructuredPrefixes) {
  // Random bytes behind a valid magic + version prefix: exercises the
  // section-walk bounds checks rather than bailing at the magic.
  for (int i = 0; i < 200; ++i) {
    std::string file(persist::kSnapshotMagic);
    persist::ByteWriter version;
    version.u32(persist::kSnapshotVersion);
    file += version.bytes();
    file += random_bytes(rng_, 256);
    std::string error;
    EXPECT_FALSE(persist::SnapshotReader::parse(file, error).has_value());
  }
}

// Binary trace container (trace/binary.h) ----------------------------------

// A random trace: a handful of hosts/paths, random methods/statuses/
// sizes, sorted times, occasional Last-Modified values.
trace::Trace random_trace(util::Rng& rng) {
  trace::Trace t;
  const auto count = rng.below(200);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto method = rng.chance(0.8)   ? trace::Method::kGet
                        : rng.chance(0.5) ? trace::Method::kPost
                                          : trace::Method::kHead;
    t.add(util::TimePoint{static_cast<util::Seconds>(rng.below(1 << 20))},
          "host-" + std::to_string(rng.below(20)),
          "server-" + std::to_string(rng.below(3)), random_path(rng),
          method, rng.chance(0.8) ? 200 : 304, rng.below(1 << 24),
          rng.chance(0.3) ? static_cast<std::int64_t>(rng.below(1 << 20))
                          : -1);
  }
  t.sort_by_time();
  return t;
}

TEST_P(CodecFuzz, BinaryTraceRoundTripRandomTraces) {
  for (int i = 0; i < 25; ++i) {
    const auto t = random_trace(rng_);
    const auto bytes = trace::serialize_binary_trace(t);
    trace::Trace reloaded;
    std::string error;
    ASSERT_TRUE(trace::load_binary_trace(bytes, reloaded, error)) << error;
    ASSERT_EQ(reloaded.size(), t.size());
    for (std::size_t r = 0; r < t.size(); ++r) {
      ASSERT_EQ(reloaded.requests()[r].time, t.requests()[r].time);
      ASSERT_EQ(reloaded.requests()[r].path, t.requests()[r].path);
      ASSERT_EQ(reloaded.requests()[r].size, t.requests()[r].size);
    }
    EXPECT_EQ(trace::trace_content_fingerprint(reloaded),
              trace::trace_content_fingerprint(t));
    // Canonical bytes: re-serializing reproduces the file.
    EXPECT_EQ(trace::serialize_binary_trace(reloaded), bytes);
  }
}

TEST_P(CodecFuzz, BinaryTraceMutationsNeverLoadAndNeverCrash) {
  // Same mutation classes as the snapshot suite: bit flips, byte stomps,
  // truncation, extension. The shared envelope checksums make every one
  // detectable, and the column validation must never read out of bounds
  // (the ASan/UBSan lanes rerun this test).
  for (int i = 0; i < 50; ++i) {
    const auto file = trace::serialize_binary_trace(random_trace(rng_));
    auto corrupt = file;
    switch (rng_.below(4)) {
      case 0: {
        const auto pos = rng_.below(corrupt.size());
        corrupt[pos] =
            static_cast<char>(corrupt[pos] ^ (1 << rng_.below(8)));
        break;
      }
      case 1: {
        const auto pos = rng_.below(corrupt.size());
        const auto run = 1 + rng_.below(16);
        for (std::uint64_t b = 0; b < run && pos + b < corrupt.size(); ++b) {
          corrupt[pos + b] = static_cast<char>(rng_.below(256));
        }
        break;
      }
      case 2:
        corrupt.resize(rng_.below(corrupt.size()));
        break;
      case 3:
        corrupt += random_bytes(rng_, 32) + "x";
        break;
    }
    if (corrupt == file) continue;
    trace::Trace out;
    std::string error;
    EXPECT_FALSE(trace::load_binary_trace(corrupt, out, error))
        << "iteration " << i;
    EXPECT_FALSE(error.empty());
  }
}

TEST_P(CodecFuzz, BinaryTraceReaderSurvivesArbitraryStructuredPrefixes) {
  for (int i = 0; i < 200; ++i) {
    std::string file(trace::kBinaryTraceMagic);
    persist::ByteWriter version;
    version.u32(trace::kBinaryTraceVersion);
    file += version.bytes();
    file += random_bytes(rng_, 256);
    trace::Trace out;
    std::string error;
    EXPECT_FALSE(trace::load_binary_trace(file, out, error));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace piggyweb
