// HTTP/1.1 request/response messages: value types plus parse/serialize.
//
// The subset implemented is what the piggybacking protocol needs (§2.3):
// request lines, status lines, headers, Content-Length bodies, and chunked
// transfer-coding with trailers (the vehicle for the P-volume response
// header, which must trail the body so piggyback construction cannot delay
// the response).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "http/header_map.h"
#include "trace/record.h"

namespace piggyweb::http {

struct Request {
  trace::Method method = trace::Method::kGet;
  std::string target = "/";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  std::string serialize() const;
};

struct Response {
  std::string version = "HTTP/1.1";
  int status = 200;
  std::string reason = "OK";
  HeaderMap headers;
  std::string body;
  // When true the body is sent chunked and `trailers` follow the final
  // chunk; the Trailer header should announce trailer field names.
  bool chunked = false;
  HeaderMap trailers;

  std::string serialize() const;
};

struct ParseError {
  std::string message;
};

// Parse results carry how many input bytes were consumed, so pipelined
// messages can be parsed one after another from a single buffer.
struct RequestParse {
  Request request;
  std::size_t consumed = 0;
};
struct ResponseParse {
  Response response;
  std::size_t consumed = 0;
};

// Parse one complete message from `input`. Returns nullopt with `error`
// filled if the bytes are malformed; a truncated message is an error too
// (this is an in-process library, callers always hand over whole messages).
std::optional<RequestParse> parse_request(std::string_view input,
                                          ParseError& error);
std::optional<ResponseParse> parse_response(std::string_view input,
                                            ParseError& error);

std::string_view reason_for_status(int status);

}  // namespace piggyweb::http
