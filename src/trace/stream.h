// Streaming zero-materialization replay (the batch-cursor API).
//
// A TraceView is the evaluator-facing contract over a trace that may or
// may not live in memory: request_count(), stable id->string tables for
// sources/servers/paths, and window(begin, count) — a span of decoded
// Requests valid until the next window() call. The two implementations:
//
//   * MaterializedTraceView wraps a loaded Trace; windows are subspans of
//     the request vector (zero cost) and the string tables are the live
//     InternTables.
//   * StreamingTraceSource drives BinaryTraceReader::read_batch straight
//     off an mmap'd PIGGYTRC container: windows are decoded into one
//     bounded buffer that is reused across calls, and the string tables
//     are views into the mapping — no intermediate Trace, no per-request
//     string copies, memory bounded by the largest window regardless of
//     trace size.
//
// Lifetime rules: a window span is invalidated by the next window() call
// on the same view (materialized views don't actually invalidate, but
// callers must not rely on that). String-table views live as long as the
// TraceView itself.
//
// content_fingerprint() returns trace_content_fingerprint of the
// equivalent materialized trace for either implementation — a streaming
// replay therefore interoperates with checkpoints and manifests exactly
// like a materializing one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/binary.h"
#include "trace/record.h"
#include "trace/source.h"
#include "util/intern.h"
#include "util/mmap_file.h"

namespace piggyweb::trace {

class TraceView {
 public:
  virtual ~TraceView() = default;

  virtual std::size_t request_count() const = 0;

  // Stable id -> string tables; ids in any window resolve against these.
  virtual util::StringTableView sources() const = 0;
  virtual util::StringTableView servers() const = 0;
  virtual util::StringTableView paths() const = 0;

  // Requests [begin, begin + count); requires begin + count <=
  // request_count(). The span is valid until the next window() call.
  virtual std::span<const Request> window(std::size_t begin,
                                          std::size_t count) = 0;

  // trace_content_fingerprint of the materialized equivalent.
  virtual std::uint64_t content_fingerprint() = 0;
};

// TraceView over an in-memory Trace (borrowed or owned).
class MaterializedTraceView final : public TraceView {
 public:
  // Borrows `trace`; it must outlive the view.
  explicit MaterializedTraceView(const Trace& trace) : trace_(&trace) {}
  // Takes ownership (the open_trace_view CLF/synthetic path).
  explicit MaterializedTraceView(Trace&& trace)
      : owned_(std::make_unique<Trace>(std::move(trace))),
        trace_(owned_.get()) {}

  std::size_t request_count() const override { return trace_->size(); }
  util::StringTableView sources() const override { return trace_->sources(); }
  util::StringTableView servers() const override { return trace_->servers(); }
  util::StringTableView paths() const override { return trace_->paths(); }
  std::span<const Request> window(std::size_t begin,
                                  std::size_t count) override;
  std::uint64_t content_fingerprint() override;

  const Trace& trace() const { return *trace_; }

 private:
  std::unique_ptr<Trace> owned_;
  const Trace* trace_;
  std::optional<std::uint64_t> fingerprint_;  // computed once, cached
};

// TraceView decoding batches straight off an mmap'd PIGGYTRC container.
class StreamingTraceSource final : public TraceView {
 public:
  // Maps `path` and validates the container (full BinaryTraceReader::open
  // validation, including the content fingerprint). Returns nullptr with
  // a message in `error` on any failure.
  static std::unique_ptr<StreamingTraceSource> open(const std::string& path,
                                                    std::string& error);
  // The same over a container already mapped from `path`.
  static std::unique_ptr<StreamingTraceSource> open(util::MmapFile file,
                                                    const std::string& path,
                                                    std::string& error);

  std::size_t request_count() const override {
    return reader_.request_count();
  }
  util::StringTableView sources() const override {
    return util::StringTableView(std::span(tables_[0]));
  }
  util::StringTableView servers() const override {
    return util::StringTableView(std::span(tables_[1]));
  }
  util::StringTableView paths() const override {
    return util::StringTableView(std::span(tables_[2]));
  }
  std::span<const Request> window(std::size_t begin,
                                  std::size_t count) override;
  std::uint64_t content_fingerprint() override {
    return reader_.content_fingerprint();
  }

 private:
  StreamingTraceSource() = default;

  util::MmapFile file_;
  BinaryTraceReader reader_;
  // id -> string views into the mapping, decoded once at open.
  std::vector<std::string_view> tables_[3];
  // Reused decode buffer; sized to the largest window requested so far.
  std::vector<Request> buffer_;
};

// TraceView exposing only the first `limit` requests of another view
// (piggyweb_evaluate --limit). Delegates string tables and windows to the
// inner view; content_fingerprint still describes the *full* underlying
// trace, so a limited replay must not be checkpointed against it (the
// tools forbid --limit with --save-state / --load-state).
class LimitedTraceView final : public TraceView {
 public:
  // Borrows `inner`; it must outlive this view.
  LimitedTraceView(TraceView& inner, std::size_t limit);

  std::size_t request_count() const override { return count_; }
  util::StringTableView sources() const override { return inner_->sources(); }
  util::StringTableView servers() const override { return inner_->servers(); }
  util::StringTableView paths() const override { return inner_->paths(); }
  std::span<const Request> window(std::size_t begin,
                                  std::size_t count) override;
  std::uint64_t content_fingerprint() override {
    return inner_->content_fingerprint();
  }

 private:
  TraceView* inner_;
  std::size_t count_;
};

// Open `spec` as a TraceView, resolving it as load_trace does (the two
// share one resolver in trace/source.cc). Binary containers stream
// (backing kStream, memory bounded by the window size); CLF text and
// synthetic specs have no random-access on-disk representation, so they
// materialize internally — exactly as load_trace would — and are wrapped
// in an owning MaterializedTraceView. `stats` reports what happened, like
// load_trace.
std::unique_ptr<TraceView> open_trace_view(const std::string& spec,
                                           const TraceSourceOptions& options,
                                           TraceLoadStats& stats,
                                           std::string& error);

}  // namespace piggyweb::trace
