#include "obs/tracer.h"

#include <memory>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace piggyweb::obs {
namespace {

TEST(Tracer, RecordsCompleteAndInstantEvents) {
  Tracer tracer;
  {
    Span span(&tracer, "outer");
    Span inner(&tracer, "inner");
  }
  tracer.instant("marker");
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.thread_count(), 1u);
}

TEST(Tracer, NullTracerSpanIsANoOp) {
  Span span(nullptr, "ignored");  // must not crash or allocate a buffer
  OBS_SPAN("also_ignored");       // global tracer is null by default
  SUCCEED();
}

TEST(Tracer, ExplicitEndIsIdempotent) {
  Tracer tracer;
  Span span(&tracer, "walk");
  span.end();
  span.end();
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, ChromeTraceIsWellFormed) {
  Tracer tracer;
  { Span span(&tracer, "a"); }
  tracer.instant("b");
  const auto text = tracer.chrome_trace_json();
  const auto parsed = parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  const auto* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  for (const auto& event : events->items()) {
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    if (event.find("ph")->string() == "X") {
      ASSERT_NE(event.find("dur"), nullptr);
    }
  }
}

TEST(Tracer, PerThreadBuffersUnderAPool) {
  Tracer tracer;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kTasks = 64;
  {
    util::ThreadPool pool(kThreads);
    util::parallel_shards(pool, kTasks, [&tracer](std::size_t) {
      Span span(&tracer, "task");
    });
  }
  EXPECT_EQ(tracer.event_count(), kTasks);
  EXPECT_GE(tracer.thread_count(), 1u);
  EXPECT_LE(tracer.thread_count(), kThreads);

  // Every worker's events carry its own tid.
  const auto trace = tracer.chrome_trace();
  std::set<double> tids;
  for (const auto& event : trace.find("traceEvents")->items()) {
    tids.insert(event.find("tid")->number());
  }
  EXPECT_EQ(tids.size(), tracer.thread_count());
}

TEST(Tracer, GlobalInstallUninstall) {
  EXPECT_EQ(global_tracer(), nullptr);
  Tracer tracer;
  set_global_tracer(&tracer);
  { OBS_SPAN("global_span"); }
  set_global_tracer(nullptr);
  { OBS_SPAN("after_uninstall"); }  // no-op again
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, PerThreadCapDropsNewestAndCounts) {
  Tracer tracer(/*max_events_per_thread=*/5);
  EXPECT_EQ(tracer.max_events_per_thread(), 5u);
  for (int i = 0; i < 12; ++i) tracer.instant("event");
  // The first five survive (drop-newest: the post-run export keeps the
  // run's beginning).
  EXPECT_EQ(tracer.event_count(), 5u);
  EXPECT_EQ(tracer.dropped(), 7u);
}

TEST(Tracer, CapIsPerThread) {
  Tracer tracer(/*max_events_per_thread=*/4);
  tracer.instant("main");
  std::thread worker([&tracer] {
    for (int i = 0; i < 10; ++i) tracer.instant("worker");
  });
  worker.join();
  EXPECT_EQ(tracer.event_count(), 5u);  // 1 main + 4 worker
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Tracer, DefaultCapIsGenerous) {
  Tracer tracer;
  EXPECT_EQ(tracer.max_events_per_thread(), std::size_t{1} << 20);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, SecondTracerDoesNotInheritStaleThreadCache) {
  // The thread-local buffer cache is keyed by tracer identity; a new
  // tracer on this thread must get its own buffer, not the old one's.
  auto first = std::make_unique<Tracer>();
  first->instant("one");
  first.reset();
  Tracer second;
  second.instant("two");
  EXPECT_EQ(second.event_count(), 1u);
}

}  // namespace
}  // namespace piggyweb::obs
