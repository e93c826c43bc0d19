#include "http/message.h"

#include "http/chunked.h"
#include "util/strings.h"

namespace piggyweb::http {
namespace {

// Parse the header block starting at `pos` (just past the start line) up
// to and including the blank line. Returns false on malformed fields.
bool parse_headers(std::string_view input, std::size_t& pos,
                   HeaderMap& headers, ParseError& error) {
  while (true) {
    const auto crlf = input.find("\r\n", pos);
    if (crlf == std::string_view::npos) {
      error.message = "truncated header block";
      return false;
    }
    const auto line = input.substr(pos, crlf - pos);
    pos = crlf + 2;
    if (line.empty()) return true;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      error.message = "malformed header field";
      return false;
    }
    headers.add(util::trim(line.substr(0, colon)),
                util::trim(line.substr(colon + 1)));
  }
}

bool is_chunked(const HeaderMap& headers) {
  const auto te = headers.get("Transfer-Encoding");
  return te && util::iequals(util::trim(*te), "chunked");
}

// Read the message body given the headers; fills body/trailers/consumed.
bool parse_body(std::string_view input, std::size_t& pos,
                const HeaderMap& headers, std::string& body,
                HeaderMap& trailers, ParseError& error) {
  if (is_chunked(headers)) {
    ChunkedDecode decoded;
    const auto status = chunk_decode_status(input.substr(pos), decoded);
    if (status != ChunkedStatus::kComplete) {
      error.message = status == ChunkedStatus::kIncomplete
                          ? "truncated chunked body"
                          : "malformed chunked body";
      return false;
    }
    body = std::move(decoded.body);
    trailers = std::move(decoded.trailers);
    pos += decoded.consumed;
    return true;
  }
  // Repeated Content-Length fields must agree (RFC 7230 §3.3.2): reading
  // only one of two differing values would leave the message's end, and
  // with it where the next pipelined message starts, up to the reader.
  std::uint64_t length = 0;
  const auto lengths = headers.get_all("Content-Length");
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::uint64_t value = 0;
    if (!util::parse_u64(util::trim(lengths[i]), value)) {
      error.message = "bad Content-Length";
      return false;
    }
    if (i > 0 && value != length) {
      error.message = "conflicting Content-Length";
      return false;
    }
    length = value;
  }
  // Compared without adding, so a huge length cannot wrap around.
  if (length > input.size() - pos) {
    error.message = "truncated body";
    return false;
  }
  body = std::string(input.substr(pos, length));
  pos += length;
  return true;
}

}  // namespace

std::string_view reason_for_status(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 304:
      return "Not Modified";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 500:
      return "Internal Server Error";
    default:
      return "Unknown";
  }
}

std::string Request::serialize() const {
  std::string out;
  out.reserve(target.size() + headers.size() * 32 + body.size() + 32);
  out += trace::method_name(method);
  out += ' ';
  out += target;
  out += ' ';
  out += version;
  out += "\r\n";
  out += headers.serialize();
  out += "\r\n";
  out += body;
  return out;
}

std::string Response::serialize() const {
  std::string out;
  out.reserve(body.size() + headers.size() * 32 + 64);
  out += version;
  out += ' ';
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  out += headers.serialize();
  out += "\r\n";
  if (chunked) {
    out += chunk_encode(body, trailers);
  } else {
    out += body;
  }
  return out;
}

std::optional<RequestParse> parse_request(std::string_view input,
                                          ParseError& error) {
  error = {};
  const auto crlf = input.find("\r\n");
  if (crlf == std::string_view::npos) {
    error.message = "missing request line";
    return std::nullopt;
  }
  const auto line = input.substr(0, crlf);
  const auto parts = util::split_trimmed(line, ' ');
  if (parts.size() != 3) {
    error.message = "malformed request line";
    return std::nullopt;
  }
  RequestParse out;
  if (!trace::parse_method(parts[0], out.request.method)) {
    error.message = "unsupported method";
    return std::nullopt;
  }
  out.request.target = std::string(parts[1]);
  out.request.version = std::string(parts[2]);
  std::size_t pos = crlf + 2;
  if (!parse_headers(input, pos, out.request.headers, error)) {
    return std::nullopt;
  }
  HeaderMap ignored_trailers;
  if (!parse_body(input, pos, out.request.headers, out.request.body,
                  ignored_trailers, error)) {
    return std::nullopt;
  }
  out.consumed = pos;
  return out;
}

std::optional<ResponseParse> parse_response(std::string_view input,
                                            ParseError& error) {
  error = {};
  const auto crlf = input.find("\r\n");
  if (crlf == std::string_view::npos) {
    error.message = "missing status line";
    return std::nullopt;
  }
  const auto line = input.substr(0, crlf);
  // "HTTP/1.1 200 OK" — reason may contain spaces.
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    error.message = "malformed status line";
    return std::nullopt;
  }
  const auto sp2 = line.find(' ', sp1 + 1);
  ResponseParse out;
  out.response.version = std::string(line.substr(0, sp1));
  std::uint64_t status = 0;
  const auto status_text = sp2 == std::string_view::npos
                               ? line.substr(sp1 + 1)
                               : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (!util::parse_u64(status_text, status) || status < 100 ||
      status > 599) {
    error.message = "bad status code";
    return std::nullopt;
  }
  out.response.status = static_cast<int>(status);
  out.response.reason = sp2 == std::string_view::npos
                            ? std::string()
                            : std::string(line.substr(sp2 + 1));
  std::size_t pos = crlf + 2;
  if (!parse_headers(input, pos, out.response.headers, error)) {
    return std::nullopt;
  }
  out.response.chunked = is_chunked(out.response.headers);
  if (!parse_body(input, pos, out.response.headers, out.response.body,
                  out.response.trailers, error)) {
    return std::nullopt;
  }
  out.consumed = pos;
  return out;
}

}  // namespace piggyweb::http
