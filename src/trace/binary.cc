#include "trace/binary.h"

#include <bit>
#include <cstring>

#include "persist/codec.h"
#include "util/expect.h"
#include "util/hash.h"

namespace piggyweb::trace {
namespace {

// Canonical section order. The reader requires exactly this layout, which
// makes "same Trace -> same bytes" checkable by comparing whole files.
constexpr std::string_view kSectionNames[] = {
    "header",          "strings.sources", "strings.servers",
    "strings.paths",   "col.time",        "col.source",
    "col.server",      "col.path",        "col.method",
    "col.status",      "col.size",        "col.last_modified",
};
constexpr std::size_t kSectionCount = std::size(kSectionNames);

// Seed for the content fingerprint fold over the non-header sections.
constexpr std::string_view kFingerprintSeed = "piggyweb-trace-columns";

// FNV-1a over the exact byte stream a persist::ByteWriter would produce,
// without materializing it. Mirrors ByteWriter's little-endian encoding
// method for method; the shared encode_* templates below are instantiated
// over both so the writer and the fingerprint cannot drift apart.
class FnvStream {
 public:
  void u8(std::uint8_t v) { step(v); }
  void u16(std::uint16_t v) { words(v, 2); }
  void u32(std::uint32_t v) { words(v, 4); }
  void u64(std::uint64_t v) { words(v, 8); }
  void i64(std::int64_t v) { words(static_cast<std::uint64_t>(v), 8); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    h_ = util::fnv1a(s, h_);
  }

  std::uint64_t value() const { return h_; }

 private:
  void words(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) step(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void step(std::uint8_t b) {
    h_ ^= b;
    h_ *= util::kFnvPrime;
  }
  std::uint64_t h_ = util::kFnvOffset;
};

template <typename Sink>
void encode_string_table(Sink& sink, const util::InternTable& table) {
  sink.u32(static_cast<std::uint32_t>(table.size()));
  for (std::size_t id = 0; id < table.size(); ++id) {
    sink.str(table.str(static_cast<util::InternId>(id)));
  }
}

// One fixed-width column; `put` encodes a single request's cell.
template <typename Sink, typename Put>
void encode_column(Sink& sink, const std::vector<Request>& requests,
                   Put put) {
  for (const Request& r : requests) put(sink, r);
}

// Encodes section payload `index` (1..11; the header is built separately
// because it embeds the fingerprint of the others) into `sink`.
template <typename Sink>
void encode_section(Sink& sink, std::size_t index, const Trace& trace) {
  const std::vector<Request>& reqs = trace.requests();
  switch (index) {
    case 1: encode_string_table(sink, trace.sources()); break;
    case 2: encode_string_table(sink, trace.servers()); break;
    case 3: encode_string_table(sink, trace.paths()); break;
    case 4:
      encode_column(sink, reqs,
                    [](Sink& s, const Request& r) { s.i64(r.time.value); });
      break;
    case 5:
      encode_column(sink, reqs,
                    [](Sink& s, const Request& r) { s.u32(r.source); });
      break;
    case 6:
      encode_column(sink, reqs,
                    [](Sink& s, const Request& r) { s.u32(r.server); });
      break;
    case 7:
      encode_column(sink, reqs,
                    [](Sink& s, const Request& r) { s.u32(r.path); });
      break;
    case 8:
      encode_column(sink, reqs, [](Sink& s, const Request& r) {
        s.u8(static_cast<std::uint8_t>(r.method));
      });
      break;
    case 9:
      encode_column(sink, reqs,
                    [](Sink& s, const Request& r) { s.u16(r.status); });
      break;
    case 10:
      encode_column(sink, reqs,
                    [](Sink& s, const Request& r) { s.u64(r.size); });
      break;
    case 11:
      encode_column(sink, reqs,
                    [](Sink& s, const Request& r) { s.i64(r.last_modified); });
      break;
    default: PW_EXPECT(false);
  }
}

// Unaligned little-endian cell load straight out of a (possibly mapped)
// column; `index` must be in bounds.
template <typename T>
T load_le(std::string_view column, std::size_t index) {
  const char* p = column.data() + index * sizeof(T);
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
           << (8 * i);
    }
    return static_cast<T>(v);
  }
}

// Validates the `strings.*` payload structure and returns the string
// count, or false on any malformation.
bool parse_string_table_header(std::string_view payload, std::size_t& count,
                               std::string& error, std::string_view name) {
  persist::ByteReader r(payload);
  const std::uint32_t n = r.u32();
  if (!r.fits(n, 4)) {
    error = std::string(name) + ": string count exceeds section size";
    return false;
  }
  for (std::uint32_t i = 0; i < n; ++i) r.str();
  if (!r.ok() || !r.at_end()) {
    error = std::string(name) + ": malformed string table";
    return false;
  }
  count = n;
  return true;
}

}  // namespace

bool looks_like_binary_trace(std::string_view prefix) {
  return prefix.size() >= kBinaryTraceMagic.size() &&
         prefix.substr(0, kBinaryTraceMagic.size()) == kBinaryTraceMagic;
}

std::uint64_t trace_content_fingerprint(const Trace& trace) {
  std::uint64_t fp = util::fnv1a(kFingerprintSeed);
  for (std::size_t i = 1; i < kSectionCount; ++i) {
    FnvStream stream;
    encode_section(stream, i, trace);
    fp = util::hash_combine(fp, stream.value());
  }
  return fp;
}

std::string serialize_binary_trace(const Trace& trace) {
  PW_EXPECT(trace.sources().size() <= 0xffffffffu &&
            trace.servers().size() <= 0xffffffffu &&
            trace.paths().size() <= 0xffffffffu);
  persist::SnapshotWriter writer;
  {
    persist::ByteWriter header;
    header.u64(trace.size());
    header.u64(trace_content_fingerprint(trace));
    writer.add_section(kSectionNames[0], header.take());
  }
  for (std::size_t i = 1; i < kSectionCount; ++i) {
    persist::ByteWriter payload;
    encode_section(payload, i, trace);
    writer.add_section(kSectionNames[i], payload.take());
  }
  return writer.finish(kBinaryTraceMagic, kBinaryTraceVersion);
}

std::optional<BinaryTraceReader> BinaryTraceReader::open(
    std::string_view file, std::string& error) {
  auto container = persist::SnapshotReader::parse(
      file, error, kBinaryTraceMagic, kBinaryTraceVersion);
  if (!container) return std::nullopt;

  // Canonical layout: exactly the known sections, in order.
  const auto& sections = container->sections();
  if (sections.size() != kSectionCount) {
    error = "trace container has wrong section count";
    return std::nullopt;
  }
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    if (sections[i].name != kSectionNames[i]) {
      error = "trace container section \"" + sections[i].name +
              "\" out of place (expected \"" + std::string(kSectionNames[i]) +
              "\")";
      return std::nullopt;
    }
  }

  BinaryTraceReader reader;
  {
    persist::ByteReader header(sections[0].payload);
    reader.count_ = header.u64();
    reader.fingerprint_ = header.u64();
    if (!header.ok() || !header.at_end()) {
      error = "malformed trace header section";
      return std::nullopt;
    }
  }
  // A column cell is at most 8 bytes, so a count the file cannot possibly
  // back is rejected here before any count*width arithmetic.
  if (reader.count_ > file.size()) {
    error = "trace header request count exceeds file size";
    return std::nullopt;
  }

  for (std::size_t i = 0; i < 3; ++i) {
    reader.strings_[i] = sections[1 + i].payload;
    if (!parse_string_table_header(reader.strings_[i],
                                   reader.string_counts_[i], error,
                                   kSectionNames[1 + i])) {
      return std::nullopt;
    }
  }

  const struct {
    std::string_view* column;
    std::size_t width;
  } columns[] = {
      {&reader.col_time_, 8},   {&reader.col_source_, 4},
      {&reader.col_server_, 4}, {&reader.col_path_, 4},
      {&reader.col_method_, 1}, {&reader.col_status_, 2},
      {&reader.col_size_, 8},   {&reader.col_last_modified_, 8},
  };
  for (std::size_t i = 0; i < std::size(columns); ++i) {
    const std::string_view payload = sections[4 + i].payload;
    if (payload.size() != reader.count_ * columns[i].width) {
      error = "column \"" + sections[4 + i].name +
              "\" length does not match the header request count";
      return std::nullopt;
    }
    *columns[i].column = payload;
  }

  // Cell-level validation: every id must resolve against its string table
  // and every method byte must be a known enum value, so downstream code
  // can index without bounds checks; and time must never decrease, since
  // replay and pair counting consume the rows in file order.
  std::int64_t previous_time = 0;
  for (std::size_t i = 0; i < reader.count_; ++i) {
    if (load_le<std::uint32_t>(reader.col_source_, i) >=
            reader.string_counts_[0] ||
        load_le<std::uint32_t>(reader.col_server_, i) >=
            reader.string_counts_[1] ||
        load_le<std::uint32_t>(reader.col_path_, i) >=
            reader.string_counts_[2]) {
      error = "trace column references an out-of-range string id";
      return std::nullopt;
    }
    if (load_le<std::uint8_t>(reader.col_method_, i) >
        static_cast<std::uint8_t>(Method::kHead)) {
      error = "trace column holds an unknown method value";
      return std::nullopt;
    }
    const auto time = load_le<std::int64_t>(reader.col_time_, i);
    if (i > 0 && time < previous_time) {
      error = "trace container is not time-sorted";
      return std::nullopt;
    }
    previous_time = time;
  }

  // The header fingerprint must equal the fold over the stored payloads —
  // the same fold trace_content_fingerprint computes from a live Trace.
  std::uint64_t fp = util::fnv1a(kFingerprintSeed);
  for (std::size_t i = 1; i < kSectionCount; ++i) {
    fp = util::hash_combine(fp, util::fnv1a(sections[i].payload));
  }
  if (fp != reader.fingerprint_) {
    error = "trace header fingerprint does not match section contents";
    return std::nullopt;
  }

  return reader;
}

std::size_t BinaryTraceReader::read_batch(std::size_t begin,
                                          std::span<Request> out) const {
  if (begin >= count_) return 0;
  const std::size_t n = std::min(out.size(), count_ - begin);
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = out[i];
    const std::size_t row = begin + i;
    r.time.value = load_le<std::int64_t>(col_time_, row);
    r.source = load_le<std::uint32_t>(col_source_, row);
    r.server = load_le<std::uint32_t>(col_server_, row);
    r.path = load_le<std::uint32_t>(col_path_, row);
    r.method = static_cast<Method>(load_le<std::uint8_t>(col_method_, row));
    r.status = load_le<std::uint16_t>(col_status_, row);
    r.size = load_le<std::uint64_t>(col_size_, row);
    r.last_modified = load_le<std::int64_t>(col_last_modified_, row);
  }
  return n;
}

void BinaryTraceReader::decode_string_views(
    std::size_t table, std::vector<std::string_view>& out) const {
  PW_EXPECT(table < 3);
  persist::ByteReader r(strings_[table]);
  const std::uint32_t n = r.u32();
  out.clear();
  out.reserve(n);
  // open() validated the table structure, so every str() read succeeds.
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.str());
  PW_EXPECT(r.ok() && r.at_end());
}

bool BinaryTraceReader::load(Trace& out, std::string& error) const {
  PW_EXPECT(out.empty() && out.sources().empty() && out.servers().empty() &&
            out.paths().empty());
  util::InternTable* const tables[3] = {&out.sources(), &out.servers(),
                                        &out.paths()};
  for (std::size_t t = 0; t < 3; ++t) {
    persist::ByteReader r(strings_[t]);
    const std::uint32_t n = r.u32();
    tables[t]->reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      // open() validated the structure; a failure here can only be a
      // duplicate string, which would renumber every id after it.
      if (tables[t]->intern(r.str()) != i) {
        error = std::string(kSectionNames[1 + t]) +
                ": duplicate string in table";
        return false;
      }
    }
  }

  std::vector<Request>& reqs = out.requests();
  reqs.resize(count_);
  // Column-major fill: one sequential pass per column over the mapping.
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].time.value = load_le<std::int64_t>(col_time_, i);
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].source = load_le<std::uint32_t>(col_source_, i);
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].server = load_le<std::uint32_t>(col_server_, i);
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].path = load_le<std::uint32_t>(col_path_, i);
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].method = static_cast<Method>(load_le<std::uint8_t>(col_method_, i));
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].status = load_le<std::uint16_t>(col_status_, i);
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].size = load_le<std::uint64_t>(col_size_, i);
  for (std::size_t i = 0; i < count_; ++i)
    reqs[i].last_modified = load_le<std::int64_t>(col_last_modified_, i);
  return true;
}

bool load_binary_trace(std::string_view file, Trace& out,
                       std::string& error) {
  auto reader = BinaryTraceReader::open(file, error);
  if (!reader) return false;
  return reader->load(out, error);
}

}  // namespace piggyweb::trace
