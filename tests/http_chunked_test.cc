#include "http/chunked.h"

#include <string>

#include <gtest/gtest.h>

#include "http/message.h"

namespace piggyweb::http {
namespace {

TEST(Chunked, EncodeEmptyBodyNoTrailers) {
  HeaderMap trailers;
  EXPECT_EQ(chunk_encode("", trailers), "0\r\n\r\n");
}

TEST(Chunked, EncodeSmallBody) {
  HeaderMap trailers;
  EXPECT_EQ(chunk_encode("hello", trailers), "5\r\nhello\r\n0\r\n\r\n");
}

TEST(Chunked, EncodeWithTrailer) {
  HeaderMap trailers;
  trailers.add("P-volume", "vid=7");
  EXPECT_EQ(chunk_encode("hi", trailers),
            "2\r\nhi\r\n0\r\nP-volume: vid=7\r\n\r\n");
}

TEST(Chunked, EncodeSplitsAtChunkSize) {
  HeaderMap trailers;
  const std::string body(10, 'x');
  const auto encoded = chunk_encode(body, trailers, 4);
  EXPECT_EQ(encoded, "4\r\nxxxx\r\n4\r\nxxxx\r\n2\r\nxx\r\n0\r\n\r\n");
}

TEST(Chunked, RoundTrip) {
  HeaderMap trailers;
  trailers.add("P-volume", "vid=3; e=\"/a 1 2\"");
  trailers.add("X-Extra", "yes");
  const std::string body = "The quick brown fox jumps over the lazy dog";
  const auto encoded = chunk_encode(body, trailers, 7);

  ChunkedDecode decoded;
  ASSERT_TRUE(chunk_decode(encoded, decoded));
  EXPECT_EQ(decoded.body, body);
  EXPECT_EQ(decoded.consumed, encoded.size());
  ASSERT_EQ(decoded.trailers.size(), 2u);
  EXPECT_EQ(*decoded.trailers.get("P-volume"), "vid=3; e=\"/a 1 2\"");
  EXPECT_EQ(*decoded.trailers.get("X-Extra"), "yes");
}

TEST(Chunked, RoundTripLargeBody) {
  HeaderMap trailers;
  std::string body;
  for (int i = 0; i < 10000; ++i) body += static_cast<char>('a' + i % 26);
  const auto encoded = chunk_encode(body, trailers);
  ChunkedDecode decoded;
  ASSERT_TRUE(chunk_decode(encoded, decoded));
  EXPECT_EQ(decoded.body, body);
}

TEST(Chunked, DecodeHexSizes) {
  ChunkedDecode decoded;
  ASSERT_TRUE(chunk_decode("a\r\n0123456789\r\n0\r\n\r\n", decoded));
  EXPECT_EQ(decoded.body, "0123456789");
}

TEST(Chunked, DecodeIgnoresChunkExtensions) {
  ChunkedDecode decoded;
  ASSERT_TRUE(chunk_decode("5;ext=1\r\nhello\r\n0\r\n\r\n", decoded));
  EXPECT_EQ(decoded.body, "hello");
}

TEST(Chunked, DecodeTracksConsumedWithSurplus) {
  const std::string encoded = "2\r\nhi\r\n0\r\n\r\nEXTRA BYTES";
  ChunkedDecode decoded;
  ASSERT_TRUE(chunk_decode(encoded, decoded));
  EXPECT_EQ(decoded.body, "hi");
  EXPECT_EQ(decoded.consumed, encoded.size() - 11);
}

TEST(Chunked, DecodeRejectsTruncatedChunk) {
  ChunkedDecode decoded;
  EXPECT_FALSE(chunk_decode("5\r\nhe", decoded));
  EXPECT_FALSE(chunk_decode("5\r\nhello", decoded));  // missing CRLF
  EXPECT_FALSE(chunk_decode("", decoded));
}

TEST(Chunked, DecodeRejectsMissingFinalChunk) {
  ChunkedDecode decoded;
  EXPECT_FALSE(chunk_decode("2\r\nhi\r\n", decoded));
}

TEST(Chunked, DecodeRejectsBadSizeLine) {
  ChunkedDecode decoded;
  EXPECT_FALSE(chunk_decode("zz\r\nhi\r\n0\r\n\r\n", decoded));
  EXPECT_FALSE(chunk_decode("\r\nhi\r\n0\r\n\r\n", decoded));
}

TEST(Chunked, DecodeRejectsMalformedTrailer) {
  ChunkedDecode decoded;
  EXPECT_FALSE(chunk_decode("0\r\nnot-a-header\r\n\r\n", decoded));
  EXPECT_FALSE(chunk_decode("0\r\nX: 1", decoded));  // no final CRLF
}

TEST(ChunkedStatus, DistinguishesIncompleteFromMalformed) {
  ChunkedDecode decoded;
  // Valid prefixes: more bytes could complete them.
  EXPECT_EQ(chunk_decode_status("5\r\nhe", decoded),
            ChunkedStatus::kIncomplete);
  EXPECT_EQ(chunk_decode_status("5\r\nhello", decoded),
            ChunkedStatus::kIncomplete);
  EXPECT_EQ(chunk_decode_status("2\r\nhi\r\n", decoded),
            ChunkedStatus::kIncomplete);
  EXPECT_EQ(chunk_decode_status("0\r\nX: 1", decoded),
            ChunkedStatus::kIncomplete);
  EXPECT_EQ(chunk_decode_status("", decoded), ChunkedStatus::kIncomplete);
  // Never valid, regardless of future bytes.
  EXPECT_EQ(chunk_decode_status("zz\r\nhi\r\n0\r\n\r\n", decoded),
            ChunkedStatus::kMalformed);
  EXPECT_EQ(chunk_decode_status("0\r\nnot-a-header\r\n\r\n", decoded),
            ChunkedStatus::kMalformed);
  EXPECT_EQ(chunk_decode_status("2\r\nhixx", decoded),
            ChunkedStatus::kMalformed);  // missing chunk CRLF
  // Complete.
  EXPECT_EQ(chunk_decode_status("2\r\nhi\r\n0\r\n\r\n", decoded),
            ChunkedStatus::kComplete);
}

// A chunk size so large that adding it to the position wraps around is a
// chunk that runs past the end, like any other.
TEST(ChunkedStatus, HugeChunkSizeIsIncomplete) {
  ChunkedDecode decoded;
  for (const auto* size : {"fffffffffffffffe", "ffffffffffffffff",
                           "fffffffffffffff0"}) {
    const std::string wire = std::string(size) + "\r\n0\r\n\r\n";
    EXPECT_EQ(chunk_decode_status(wire, decoded), ChunkedStatus::kIncomplete)
        << size;
    Response response;
    response.headers.add("Transfer-Encoding", "chunked");
    ParseError error;
    EXPECT_FALSE(parse_response(response.serialize() + wire, error)
                     .has_value())
        << size;
    EXPECT_EQ(error.message, "truncated chunked body") << size;
  }
}

TEST(Chunked, DecodeBodyWithCrlfInside) {
  HeaderMap trailers;
  const std::string body = "line1\r\nline2\r\n0\r\n";
  const auto encoded = chunk_encode(body, trailers, 5);
  ChunkedDecode decoded;
  ASSERT_TRUE(chunk_decode(encoded, decoded));
  EXPECT_EQ(decoded.body, body);
}

}  // namespace
}  // namespace piggyweb::http
