// Columnar binary trace container ("PIGGYTRC").
//
// The CLF text parse dominates replay time at scale; this format stores a
// Trace as fixed-width little-endian columns plus the three intern string
// tables, inside the same section/checksum envelope the durable snapshots
// use (persist/codec.h, magic "PIGGYTRC" instead of "PIGGYSNP"):
//
//   header               u64 request_count, u64 content_fingerprint
//   strings.sources      u32 count, count x (u32 len + bytes), id order
//   strings.servers      (same)
//   strings.paths        (same)
//   col.time             request_count x i64   seconds since epoch,
//                                              non-decreasing
//   col.source           request_count x u32   intern id
//   col.server           request_count x u32   intern id
//   col.path             request_count x u32   intern id
//   col.method           request_count x u8    Method enum value
//   col.status           request_count x u16
//   col.size             request_count x u64
//   col.last_modified    request_count x i64   (-1 = unknown)
//
// The writer is canonical: the same Trace (same requests in the same
// order, same intern tables) always produces the same bytes, so the
// whole-file checksum doubles as a trace identity and the content
// fingerprint (a fold over the section payloads, exposed as
// trace_content_fingerprint) is computable from either the file or an
// in-memory Trace — that is what binds eval checkpoints to a trace
// independently of which format it was loaded from.
//
// BinaryTraceReader is zero-copy: it borrows the file bytes (typically a
// util::MmapFile region), validates structure/checksums/id-bounds once at
// open, and then serves request batches straight from the mapped columns.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.h"

namespace piggyweb::trace {

inline constexpr std::string_view kBinaryTraceMagic = "PIGGYTRC";
inline constexpr std::uint32_t kBinaryTraceVersion = 1;

// True when `prefix` (the first bytes of a file) starts with the binary
// trace magic — the trace loader's format sniff (trace/source.h).
bool looks_like_binary_trace(std::string_view prefix);

// Canonical serialization of a trace (see format comment above).
std::string serialize_binary_trace(const Trace& trace);

// Content fingerprint over the canonical column encoding — equal for a
// Trace loaded from CLF and the same Trace round-tripped through the
// binary container. Stored in (and verified against) the file header.
std::uint64_t trace_content_fingerprint(const Trace& trace);

// Zero-copy reader over a serialized binary trace. The buffer passed to
// open() must outlive the reader and every batch it decodes.
class BinaryTraceReader {
 public:
  // Validates the container (magic, version, section checksums), the
  // section set, column lengths against the header count, string-table
  // structure, id bounds of every source/server/path/method cell, time
  // order (equal times are legal), and the header fingerprint. Corrupt
  // input of any kind is rejected with a message in `error`, never
  // crashed on.
  static std::optional<BinaryTraceReader> open(std::string_view file,
                                               std::string& error);

  std::size_t request_count() const { return count_; }
  std::uint64_t content_fingerprint() const { return fingerprint_; }
  std::size_t source_count() const { return string_counts_[0]; }
  std::size_t server_count() const { return string_counts_[1]; }
  std::size_t path_count() const { return string_counts_[2]; }

  // Decode up to out.size() requests starting at request index `begin`,
  // straight from the mapped columns; returns the number decoded (0 at
  // end of trace).
  std::size_t read_batch(std::size_t begin, std::span<Request> out) const;

  // Decode string table `table` (0 sources, 1 servers, 2 paths) as id ->
  // view entries pointing into the open()ed buffer — no copies. The views
  // are valid for the buffer's lifetime. This is the id->string surface
  // the streaming replay path hands to consumers in place of a live
  // InternTable.
  void decode_string_views(std::size_t table,
                           std::vector<std::string_view>& out) const;

  // Materialize the whole trace (string tables in id order, then all
  // requests column-major) into the empty trace `out`. Fails only on a
  // duplicate string inside one table (which would shift intern ids).
  bool load(Trace& out, std::string& error) const;

 private:
  std::size_t count_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::string_view strings_[3];  // sources/servers/paths payloads
  std::size_t string_counts_[3] = {0, 0, 0};
  std::string_view col_time_;
  std::string_view col_source_;
  std::string_view col_server_;
  std::string_view col_path_;
  std::string_view col_method_;
  std::string_view col_status_;
  std::string_view col_size_;
  std::string_view col_last_modified_;
};

// Convenience: open + load over one buffer.
bool load_binary_trace(std::string_view file, Trace& out, std::string& error);

}  // namespace piggyweb::trace
