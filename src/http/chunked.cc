#include "http/chunked.h"

#include <charconv>
#include <cstdio>

#include "util/expect.h"
#include "util/strings.h"

namespace piggyweb::http {
namespace {

// Read a CRLF-terminated line starting at `pos`; returns false if no CRLF.
bool take_line(std::string_view input, std::size_t& pos,
               std::string_view& line) {
  const auto crlf = input.find("\r\n", pos);
  if (crlf == std::string_view::npos) return false;
  line = input.substr(pos, crlf - pos);
  pos = crlf + 2;
  return true;
}

}  // namespace

std::string chunk_encode(std::string_view body, const HeaderMap& trailers,
                         std::size_t chunk_size) {
  PW_EXPECT(chunk_size > 0);
  std::string out;
  out.reserve(body.size() + body.size() / chunk_size * 8 + 64 +
              trailers.size() * 32);
  std::size_t offset = 0;
  while (offset < body.size()) {
    const auto n = std::min(chunk_size, body.size() - offset);
    char size_line[20];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n", n);
    out += size_line;
    out.append(body.substr(offset, n));
    out += "\r\n";
    offset += n;
  }
  out += "0\r\n";           // mandatory zero-length final chunk
  out += trailers.serialize();
  out += "\r\n";            // end of trailer section
  return out;
}

ChunkedStatus chunk_decode_status(std::string_view input,
                                  ChunkedDecode& out) {
  out = {};
  std::size_t pos = 0;
  while (true) {
    std::string_view size_line;
    if (!take_line(input, pos, size_line)) {
      // No CRLF yet: a partial size line is incomplete unless it already
      // contains a byte that can never be valid hex/extension syntax.
      return ChunkedStatus::kIncomplete;
    }
    // Chunk extensions (";ext=...") are permitted and ignored.
    const auto semi = size_line.find(';');
    const auto hex = util::trim(semi == std::string_view::npos
                                    ? size_line
                                    : size_line.substr(0, semi));
    std::size_t chunk_len = 0;
    const auto [ptr, ec] = std::from_chars(
        hex.data(), hex.data() + hex.size(), chunk_len, 16);
    if (ec != std::errc{} || ptr != hex.data() + hex.size()) {
      return ChunkedStatus::kMalformed;
    }
    if (chunk_len == 0) break;
    // The chunk and its CRLF must fit in what is left; compared without
    // adding, so a huge size cannot wrap around.
    const auto left = input.size() - pos;
    if (left < 2 || chunk_len > left - 2) return ChunkedStatus::kIncomplete;
    out.body.append(input.substr(pos, chunk_len));
    pos += chunk_len;
    if (input.substr(pos, 2) != "\r\n") return ChunkedStatus::kMalformed;
    pos += 2;
  }
  // Trailer section: header lines until an empty line.
  while (true) {
    std::string_view line;
    if (!take_line(input, pos, line)) return ChunkedStatus::kIncomplete;
    if (line.empty()) break;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return ChunkedStatus::kMalformed;
    out.trailers.add(util::trim(line.substr(0, colon)),
                     util::trim(line.substr(colon + 1)));
  }
  out.consumed = pos;
  return ChunkedStatus::kComplete;
}

bool chunk_decode(std::string_view input, ChunkedDecode& out) {
  return chunk_decode_status(input, out) == ChunkedStatus::kComplete;
}

}  // namespace piggyweb::http
