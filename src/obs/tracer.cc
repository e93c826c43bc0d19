#include "obs/tracer.h"

#include <atomic>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace piggyweb::obs {

namespace {
std::atomic<std::uint64_t> g_next_tracer_id{1};
}  // namespace

Tracer::Tracer(std::size_t max_events_per_thread)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      max_events_(max_events_per_thread) {}

std::uint64_t Tracer::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count());
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Cache keyed by the tracer's process-unique id, not its address: a new
  // tracer constructed at a reused address must not hit a stale cache.
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_id != id_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    cached_buffer = buffer.get();
    cached_id = id_;
    buffers_.lock()->push_back(std::move(buffer));
  }
  return *cached_buffer;
}

void Tracer::complete(std::string name, std::uint64_t start_us,
                      std::uint64_t dur_us) {
  auto events = local_buffer().lock();
  if (events->size() >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events->push_back({std::move(name), start_us, dur_us, 'X'});
}

void Tracer::instant(std::string name) {
  auto& buffer = local_buffer();
  const auto ts = now_us();
  auto events = buffer.lock();
  if (events->size() >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events->push_back({std::move(name), ts, 0, 'i'});
}

std::size_t Tracer::event_count() const {
  std::size_t total = 0;
  const auto buffers = buffers_.lock();
  for (const auto& buffer : *buffers) total += buffer->lock()->size();
  return total;
}

std::size_t Tracer::thread_count() const {
  return buffers_.lock()->size();
}

Json Tracer::chrome_trace() const {
  auto events = Json::array();
  const auto buffers = buffers_.lock();
  for (std::size_t tid = 0; tid < buffers->size(); ++tid) {
    const auto buffer = (*buffers)[tid]->lock();
    for (const auto& event : *buffer) {
      auto item = Json::object();
      item.set("name", event.name);
      item.set("cat", "piggyweb");
      item.set("ph", std::string(1, event.phase));
      item.set("ts", event.ts_us);
      if (event.phase == 'X') item.set("dur", event.dur_us);
      if (event.phase == 'i') item.set("s", "t");
      item.set("pid", 1);
      item.set("tid", tid);
      events.push_back(std::move(item));
    }
  }
  auto out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ms");
  return out;
}

std::string Tracer::chrome_trace_json() const {
  return chrome_trace().dump(1);
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "obs: cannot write trace to %s\n", path.c_str());
    return false;
  }
  out << chrome_trace_json();
  return out.good();
}

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
}  // namespace

Tracer* global_tracer() { return g_tracer.load(std::memory_order_acquire); }

void set_global_tracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

}  // namespace piggyweb::obs
