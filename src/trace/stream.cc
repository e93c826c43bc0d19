#include "trace/stream.h"

#include <algorithm>
#include <utility>

#include "util/expect.h"

namespace piggyweb::trace {

std::span<const Request> MaterializedTraceView::window(std::size_t begin,
                                                       std::size_t count) {
  PW_EXPECT(begin + count <= trace_->size());
  return std::span(trace_->requests()).subspan(begin, count);
}

std::uint64_t MaterializedTraceView::content_fingerprint() {
  if (!fingerprint_.has_value()) {
    fingerprint_ = trace_content_fingerprint(*trace_);
  }
  return *fingerprint_;
}

std::unique_ptr<StreamingTraceSource> StreamingTraceSource::open(
    const std::string& path, std::string& error) {
  auto mapping = util::MmapFile::open(path, error);
  if (!mapping) return nullptr;
  mapping->advise_sequential();
  return open(std::move(*mapping), path, error);
}

std::unique_ptr<StreamingTraceSource> StreamingTraceSource::open(
    util::MmapFile file, const std::string& path, std::string& error) {
  auto reader = BinaryTraceReader::open(file.bytes(), error);
  if (!reader) {
    error = path + ": " + error;
    return nullptr;
  }
  // make_unique needs a public constructor; the factory is the only maker.
  std::unique_ptr<StreamingTraceSource> source(new StreamingTraceSource());
  source->file_ = std::move(file);
  source->reader_ = *reader;
  for (std::size_t t = 0; t < 3; ++t) {
    source->reader_.decode_string_views(t, source->tables_[t]);
  }
  return source;
}

std::span<const Request> StreamingTraceSource::window(std::size_t begin,
                                                      std::size_t count) {
  PW_EXPECT(begin + count <= reader_.request_count());
  if (buffer_.size() < count) buffer_.resize(count);
  const std::size_t decoded =
      reader_.read_batch(begin, std::span(buffer_).subspan(0, count));
  PW_EXPECT(decoded == count);
  return std::span(std::as_const(buffer_)).subspan(0, count);
}

LimitedTraceView::LimitedTraceView(TraceView& inner, std::size_t limit)
    : inner_(&inner), count_(std::min(limit, inner.request_count())) {}

std::span<const Request> LimitedTraceView::window(std::size_t begin,
                                                  std::size_t count) {
  PW_EXPECT(begin + count <= count_);
  return inner_->window(begin, count);
}

}  // namespace piggyweb::trace
