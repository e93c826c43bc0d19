// Wide byte scanning for the hot text-ingestion paths (CLF field and line
// splitting). find_byte() locates the next occurrence of a delimiter byte
// examining 16 bytes per step with SSE2 where the target supports it, or 8
// bytes per step with a SWAR register trick otherwise; find_byte_scalar()
// is the obviously-correct one-byte-at-a-time reference the randomized
// differential tests compare against.
//
// Dispatch policy: the wide path is chosen once, at compile time, behind
// the single PIGGYWEB_SCAN_SSE2 point below — no runtime CPU detection, so
// replay stays deterministic and the binary has exactly one scanner.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#define PIGGYWEB_SCAN_SSE2 1
#else
#define PIGGYWEB_SCAN_SSE2 0
#endif

namespace piggyweb::util {

// Reference scalar scan: index of the first `needle` at or after `from`,
// or npos. Semantics match std::string_view::find(char, from).
inline std::size_t find_byte_scalar(std::string_view haystack, char needle,
                                    std::size_t from = 0) {
  for (std::size_t i = from; i < haystack.size(); ++i) {
    if (haystack[i] == needle) return i;
  }
  return std::string_view::npos;
}

namespace detail {

// SWAR "has zero byte" trick (Lamport): a byte of `x` is zero iff the
// corresponding byte of the result has its high bit set.
inline constexpr std::uint64_t kSwarLow = 0x0101010101010101ULL;
inline constexpr std::uint64_t kSwarHigh = 0x8080808080808080ULL;

inline std::uint64_t swar_match_mask(std::uint64_t word, std::uint64_t pattern) {
  const std::uint64_t x = word ^ pattern;
  return (x - kSwarLow) & ~x & kSwarHigh;
}

inline constexpr std::uint64_t swap_u64(std::uint64_t x) {
  x = ((x & 0x00ff00ff00ff00ffULL) << 8) | ((x >> 8) & 0x00ff00ff00ff00ffULL);
  x = ((x & 0x0000ffff0000ffffULL) << 16) |
      ((x >> 16) & 0x0000ffff0000ffffULL);
  return (x << 32) | (x >> 32);
}

}  // namespace detail

// Index of the first `needle` at or after `from`, or npos. The wide scan
// reads only bytes inside [from, size): the head runs to an alignment-free
// full-word boundary and the tail falls back to the scalar loop, so mapped
// buffers are never over-read.
inline std::size_t find_byte(std::string_view haystack, char needle,
                             std::size_t from = 0) {
  const char* data = haystack.data();
  const std::size_t size = haystack.size();
  std::size_t i = from;
#if PIGGYWEB_SCAN_SSE2
  const __m128i pattern = _mm_set1_epi8(needle);
  while (i + 16 <= size) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(chunk, pattern));
    if (mask != 0) {
      return i + static_cast<std::size_t>(
                     std::countr_zero(static_cast<unsigned>(mask)));
    }
    i += 16;
  }
#else
  const std::uint64_t pattern =
      detail::kSwarLow * static_cast<std::uint8_t>(needle);
  while (i + 8 <= size) {
    std::uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = detail::swap_u64(word);
    }
    const std::uint64_t hits = detail::swar_match_mask(word, pattern);
    if (hits != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(hits)) / 8;
    }
    i += 8;
  }
#endif
  return find_byte_scalar(haystack, needle, i);
}

}  // namespace piggyweb::util
