// obs::Tracer — scoped trace spans emitting Chrome trace-event JSON
// (loadable in chrome://tracing or https://ui.perfetto.dev).
//
// Each thread appends to its own buffer, registered on first use, so
// instrumenting the parallel evaluator's worker lambdas never serializes
// them: the only shared lock is taken once per (thread, tracer) at
// registration and again at export time. Per-buffer appends lock a
// buffer-private mutex that only the owning thread and the exporter ever
// touch — uncontended during the run, and exactly what TSan needs to see
// to prove the export race-free.
//
// Instrumentation sites use the OBS_SPAN macro against the process-global
// tracer, which is null (a no-op) unless a run scope installs one:
//
//   void SimulationEngine::run() {
//     OBS_SPAN("engine.run");
//     ...
//   }
//
// Timestamps are steady-clock microseconds since tracer construction, so
// traces are wall-accurate but never bit-stable; nothing downstream diffs
// them (unlike registry snapshots).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/guarded.h"

namespace piggyweb::obs {

class Json;

class Tracer {
 public:
  // Per-thread buffers stop growing at `max_events_per_thread`; events
  // beyond the cap are dropped (the newest are lost, so a trace keeps a
  // run's beginning) and counted, so a long replay can leave tracing on
  // without unbounded memory. The default caps a buffer at ~48 MB of
  // events.
  static constexpr std::size_t kDefaultMaxEventsPerThread =
      std::size_t{1} << 20;

  explicit Tracer(
      std::size_t max_events_per_thread = kDefaultMaxEventsPerThread);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Microseconds since construction (steady clock).
  std::uint64_t now_us() const;

  // Record a completed span [start_us, start_us + dur_us) on the calling
  // thread's buffer.
  void complete(std::string name, std::uint64_t start_us,
                std::uint64_t dur_us);

  // Record an instant event at now.
  void instant(std::string name);

  std::size_t event_count() const;
  std::size_t thread_count() const;
  std::size_t max_events_per_thread() const { return max_events_; }
  // Events discarded because their thread's buffer hit the cap.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // {"traceEvents": [...], "displayTimeUnit": "ms"} — call after the
  // traced threads have quiesced (joined pools).
  Json chrome_trace() const;
  std::string chrome_trace_json() const;

  // Write chrome_trace_json() to `path`; false (with a message on stderr)
  // when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::uint64_t ts_us;
    std::uint64_t dur_us;
    char phase;  // 'X' complete, 'i' instant
  };
  // One thread's events: appended by that thread, read by the exporter.
  using ThreadBuffer = util::Guarded<std::vector<Event>>;

  ThreadBuffer& local_buffer();

  const std::uint64_t id_;  // process-unique, never reused
  const std::chrono::steady_clock::time_point epoch_;
  const std::size_t max_events_;
  std::atomic<std::uint64_t> dropped_{0};
  util::Guarded<std::vector<std::unique_ptr<ThreadBuffer>>> buffers_;
};

// RAII span: records [construction, destruction) on `tracer`'s calling
// thread; with a null tracer it is a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) start_us_ = tracer_->now_us();
  }
  ~Span() { end(); }
  // Close the span before scope exit; later end()s and the destructor
  // become no-ops.
  void end() {
    if (tracer_ == nullptr) return;
    tracer_->complete(name_, start_us_, tracer_->now_us() - start_us_);
    tracer_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t start_us_ = 0;
};

// Process-global tracer. Null (the default) disables all spans;
// obs::RunScope installs/uninstalls it around a run.
Tracer* global_tracer();
void set_global_tracer(Tracer* tracer);

#define PW_OBS_CONCAT2(a, b) a##b
#define PW_OBS_CONCAT(a, b) PW_OBS_CONCAT2(a, b)

// Span over the enclosing scope against the global tracer (no-op when
// tracing is disabled).
#define OBS_SPAN(name)                                    \
  ::piggyweb::obs::Span PW_OBS_CONCAT(obs_span_, __LINE__)( \
      ::piggyweb::obs::global_tracer(), (name))

}  // namespace piggyweb::obs
