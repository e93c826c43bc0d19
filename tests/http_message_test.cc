#include "http/message.h"

#include <string>

#include <gtest/gtest.h>

namespace piggyweb::http {
namespace {

TEST(RequestSerialize, PaperExample) {
  // The §2.3 example request.
  Request request;
  request.method = trace::Method::kGet;
  request.target = "/mafia.html";
  request.headers.add("host", "sig.com");
  request.headers.add("TE", "chunked");
  request.headers.add("Piggy-filter", "maxpiggy=10; rpv=\"3,4\"");
  EXPECT_EQ(request.serialize(),
            "GET /mafia.html HTTP/1.1\r\n"
            "host: sig.com\r\n"
            "TE: chunked\r\n"
            "Piggy-filter: maxpiggy=10; rpv=\"3,4\"\r\n"
            "\r\n");
}

TEST(RequestParse, RoundTrip) {
  Request request;
  request.method = trace::Method::kHead;
  request.target = "/a/b.html";
  request.headers.add("Host", "x.com");
  ParseError error;
  const auto parsed = parse_request(request.serialize(), error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_EQ(parsed->request.method, trace::Method::kHead);
  EXPECT_EQ(parsed->request.target, "/a/b.html");
  EXPECT_EQ(*parsed->request.headers.get("Host"), "x.com");
  EXPECT_EQ(parsed->consumed, request.serialize().size());
}

TEST(RequestParse, WithContentLengthBody) {
  ParseError error;
  const auto parsed = parse_request(
      "POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_EQ(parsed->request.body, "hello");
}

TEST(RequestParse, RejectsMalformed) {
  ParseError error;
  EXPECT_FALSE(parse_request("", error).has_value());
  EXPECT_FALSE(parse_request("GET\r\n\r\n", error).has_value());
  EXPECT_FALSE(parse_request("PUT /x HTTP/1.1\r\n\r\n", error).has_value());
  EXPECT_FALSE(
      parse_request("GET /x HTTP/1.1\r\nBadHeader\r\n\r\n", error)
          .has_value());
  EXPECT_FALSE(parse_request("GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi",
                             error)
                   .has_value());
}

TEST(ResponseSerialize, PlainBody) {
  Response response;
  response.status = 200;
  response.reason = "OK";
  response.headers.add("Content-Length", "2");
  response.body = "hi";
  EXPECT_EQ(response.serialize(),
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
}

TEST(ResponseSerialize, ChunkedWithTrailer) {
  Response response;
  response.status = 200;
  response.reason = "OK";
  response.headers.add("Transfer-Encoding", "chunked");
  response.headers.add("Trailer", "P-volume");
  response.chunked = true;
  response.body = "data";
  response.trailers.add("P-volume", "vid=1");
  const auto wire = response.serialize();
  EXPECT_NE(wire.find("4\r\ndata\r\n0\r\n"), std::string::npos);
  EXPECT_NE(wire.find("P-volume: vid=1\r\n"), std::string::npos);
}

TEST(ResponseParse, PlainRoundTrip) {
  Response response;
  response.status = 404;
  response.reason = "Not Found";
  response.headers.add("Content-Length", "0");
  ParseError error;
  const auto parsed = parse_response(response.serialize(), error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_EQ(parsed->response.status, 404);
  EXPECT_EQ(parsed->response.reason, "Not Found");
  EXPECT_TRUE(parsed->response.body.empty());
}

TEST(ResponseParse, ChunkedRoundTrip) {
  Response response;
  response.headers.add("Transfer-Encoding", "chunked");
  response.chunked = true;
  response.body = "chunked body content";
  response.trailers.add("P-volume", "vid=9; e=\"/x 1 2\"");
  ParseError error;
  const auto parsed = parse_response(response.serialize(), error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_TRUE(parsed->response.chunked);
  EXPECT_EQ(parsed->response.body, "chunked body content");
  ASSERT_TRUE(parsed->response.trailers.get("P-volume").has_value());
  EXPECT_EQ(*parsed->response.trailers.get("P-volume"),
            "vid=9; e=\"/x 1 2\"");
}

TEST(ResponseParse, NoContentLengthMeansEmptyBody) {
  ParseError error;
  const auto parsed =
      parse_response("HTTP/1.1 304 Not Modified\r\n\r\n", error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_EQ(parsed->response.status, 304);
  EXPECT_TRUE(parsed->response.body.empty());
}

TEST(ResponseParse, RejectsMalformed) {
  ParseError error;
  EXPECT_FALSE(parse_response("", error).has_value());
  EXPECT_FALSE(parse_response("HTTP/1.1\r\n\r\n", error).has_value());
  EXPECT_FALSE(parse_response("HTTP/1.1 abc OK\r\n\r\n", error).has_value());
  EXPECT_FALSE(parse_response("HTTP/1.1 99 ?\r\n\r\n", error).has_value());
  EXPECT_FALSE(
      parse_response("HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n", error)
          .has_value());
}

TEST(ResponseParse, PipelinedConsumed) {
  Response first;
  first.headers.add("Content-Length", "3");
  first.body = "abc";
  const auto wire = first.serialize() + "HTTP/1.1 304 Not Modified\r\n\r\n";
  ParseError error;
  const auto parsed = parse_response(wire, error);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->response.body, "abc");
  const auto second =
      parse_response(std::string_view(wire).substr(parsed->consumed), error);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->response.status, 304);
}

// A message cut anywhere before its last byte is rejected, with a
// message, and never mistaken for a shorter complete one.
TEST(ParseTruncated, EveryProperPrefixIsRejected) {
  Request request;
  request.method = trace::Method::kPost;
  request.target = "/submit";
  request.headers.add("Content-Length", "5");
  request.body = "hello";
  Response response;
  response.headers.add("Transfer-Encoding", "chunked");
  response.chunked = true;
  response.body = "chunked body content";
  response.trailers.add("P-volume", "vid=9; e=\"/x 1 2\"");
  const auto request_wire = request.serialize();
  const auto response_wire = response.serialize();
  ParseError error;
  for (std::size_t n = 0; n < request_wire.size(); ++n) {
    error.message.clear();
    EXPECT_FALSE(
        parse_request(std::string_view(request_wire).substr(0, n), error)
            .has_value())
        << "request prefix of " << n << " bytes";
    EXPECT_FALSE(error.message.empty());
  }
  for (std::size_t n = 0; n < response_wire.size(); ++n) {
    error.message.clear();
    EXPECT_FALSE(
        parse_response(std::string_view(response_wire).substr(0, n), error)
            .has_value())
        << "response prefix of " << n << " bytes";
    EXPECT_FALSE(error.message.empty());
  }
  EXPECT_TRUE(parse_request(request_wire, error).has_value()) << error.message;
  EXPECT_TRUE(parse_response(response_wire, error).has_value())
      << error.message;
}

// A Content-Length so large that adding it to the header length wraps
// around is a body that runs past the end, like any other. The body
// starts at byte 57, so these lengths wrap to 56, 41 and 0.
TEST(ParseTruncated, HugeContentLengthIsRejected) {
  for (const auto* length : {"18446744073709551615", "18446744073709551600",
                             "18446744073709551559"}) {
    const std::string headers =
        std::string("Content-Length: ") + length + "\r\n\r\nabc";
    ParseError error;
    EXPECT_FALSE(
        parse_request("GET /a HTTP/1.1\r\n" + headers, error).has_value())
        << length;
    EXPECT_EQ(error.message, "truncated body") << length;
    EXPECT_FALSE(
        parse_response("HTTP/1.1 200 OK\r\n" + headers, error).has_value())
        << length;
    EXPECT_EQ(error.message, "truncated body") << length;
  }
}

// Two Content-Length fields that disagree leave the message's end
// ambiguous; reading the first would leave "de" as the start of the next
// pipelined message. Identical repeats stay accepted.
TEST(ParseContentLength, ConflictingValuesAreRejected) {
  const std::string headers =
      "Content-Length: 3\r\nContent-Length: 5\r\n\r\nabcde";
  ParseError error;
  EXPECT_FALSE(
      parse_request("POST /a HTTP/1.1\r\n" + headers, error).has_value());
  EXPECT_EQ(error.message, "conflicting Content-Length");
  EXPECT_FALSE(
      parse_response("HTTP/1.1 200 OK\r\n" + headers, error).has_value());
  EXPECT_EQ(error.message, "conflicting Content-Length");
}

TEST(ParseContentLength, IdenticalRepeatsAreAccepted) {
  const std::string message =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\nContent-Length:  3 \r\n\r\n"
      "abcGET";
  ParseError error;
  const auto parsed = parse_request(message, error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_EQ(parsed->request.body, "abc");
  EXPECT_EQ(parsed->consumed, message.size() - 3);
}

TEST(ReasonForStatus, KnownCodes) {
  EXPECT_EQ(reason_for_status(200), "OK");
  EXPECT_EQ(reason_for_status(304), "Not Modified");
  EXPECT_EQ(reason_for_status(404), "Not Found");
  EXPECT_EQ(reason_for_status(123), "Unknown");
}

}  // namespace
}  // namespace piggyweb::http
