// ThreadPool + fork-join helper tests. These run under the tsan ctest
// label: build with -DPIGGYWEB_SANITIZE=thread and `ctest -L tsan` to
// check the synchronisation, not just the results.
#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/pool_metrics.h"
#include "obs/registry.h"
#include "util/parallel.h"

namespace piggyweb::util {
namespace {

TEST(ThreadPool, RunsEveryPostedTaskExactlyOnce) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.post([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(runs.load(), 1000);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), 1u);
    pool.post([&ran] { ran = true; });
  }
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ParallelShards, CoversEveryShardExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t shards : {0u, 1u, 3u, 16u, 100u}) {
      std::vector<std::atomic<int>> hits(shards);
      parallel_shards(pool, shards, [&hits](std::size_t s) {
        hits[s].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
      }
    }
  }
}

TEST(ParallelShards, IsABarrier) {
  ThreadPool pool(4);
  // Writes made inside the fork must be visible, without synchronisation,
  // after the join returns.
  std::vector<std::uint64_t> out(64, 0);
  parallel_shards(pool, out.size(),
                  [&out](std::size_t s) { out[s] = s * s; });
  for (std::size_t s = 0; s < out.size(); ++s) {
    ASSERT_EQ(out[s], s * s);
  }
}

TEST(ParallelShards, RethrowsTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_shards(pool, 8,
                               [](std::size_t s) {
                                 if (s == 5) {
                                   throw std::runtime_error("shard 5");
                                 }
                               }),
               std::runtime_error);
  // The pool must still be usable after a failed fork-join.
  std::atomic<int> runs{0};
  parallel_shards(pool, 4, [&runs](std::size_t) { ++runs; });
  EXPECT_EQ(runs.load(), 4);
}

class CountingObserver : public ThreadPoolObserver {
 public:
  void on_post(std::size_t queue_depth) override {
    posts.fetch_add(1, std::memory_order_relaxed);
    // High-watermark under a race-free CAS loop.
    auto seen = max_depth.load(std::memory_order_relaxed);
    while (queue_depth > seen &&
           !max_depth.compare_exchange_weak(seen, queue_depth)) {
    }
  }
  void on_task_complete(double run_seconds) override {
    completions.fetch_add(1, std::memory_order_relaxed);
    if (run_seconds >= 0) nonnegative.fetch_add(1, std::memory_order_relaxed);
  }
  void on_dequeue(double queue_seconds, bool handoff) override {
    dequeues.fetch_add(1, std::memory_order_relaxed);
    if (queue_seconds >= 0) {
      nonnegative_queue.fetch_add(1, std::memory_order_relaxed);
    }
    if (handoff) handoffs.fetch_add(1, std::memory_order_relaxed);
  }
  void on_worker_idle(double idle_seconds) override {
    if (idle_seconds >= 0) idles.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> posts{0};
  std::atomic<std::uint64_t> completions{0};
  std::atomic<std::uint64_t> nonnegative{0};
  std::atomic<std::uint64_t> dequeues{0};
  std::atomic<std::uint64_t> nonnegative_queue{0};
  std::atomic<std::uint64_t> handoffs{0};
  std::atomic<std::uint64_t> idles{0};
  std::atomic<std::size_t> max_depth{0};
};

TEST(ThreadPoolObserver, SeesEveryPostAndCompletion) {
  CountingObserver observer;
  {
    ThreadPool pool(4, &observer);
    for (int i = 0; i < 500; ++i) {
      pool.post([] {});
    }
  }
  EXPECT_EQ(observer.posts.load(), 500u);
  EXPECT_EQ(observer.completions.load(), 500u);
  // Task wall times are monotone-clock differences: never negative.
  EXPECT_EQ(observer.nonnegative.load(), 500u);
  EXPECT_GE(observer.max_depth.load(), 1u);
  // Every task is dequeued exactly once, with a non-negative queue wait.
  EXPECT_EQ(observer.dequeues.load(), 500u);
  EXPECT_EQ(observer.nonnegative_queue.load(), 500u);
  // Handoffs (dequeues after an actual condvar sleep) are a subset of
  // dequeues, and each one reports its idle interval.
  EXPECT_LE(observer.handoffs.load(), 500u);
  EXPECT_EQ(observer.idles.load(), observer.handoffs.load());
}

TEST(ThreadPoolObserver, NullObserverIsTheDefaultPath) {
  // No observer attached: the pool must not time tasks or call hooks.
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.post([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(runs.load(), 100);
}

TEST(ThreadPoolMetrics, PopulatesRegistry) {
  obs::Registry registry;
  {
    obs::ThreadPoolMetrics metrics(registry, "test.pool");
    ThreadPool pool(3, &metrics);
    parallel_shards(pool, 64, [](std::size_t) {});
  }
  EXPECT_EQ(registry.counter("test.pool.tasks",
                             /*deterministic=*/false)
                .value(),
            64u);
  EXPECT_GE(registry
                .gauge("test.pool.queue_depth_max",
                       /*deterministic=*/false)
                .value(),
            1.0);
  const auto& task_seconds =
      registry.log_histogram("test.pool.task_seconds");
  EXPECT_EQ(task_seconds.count(), 64u);
  EXPECT_GE(task_seconds.min(), 0.0);
  // Every dequeue records a queue latency; handoffs are a subset of
  // dequeues (only the ones where the worker actually slept).
  const auto& queue_seconds =
      registry.log_histogram("test.pool.queue_seconds");
  EXPECT_EQ(queue_seconds.count(), 64u);
  EXPECT_GE(queue_seconds.min(), 0.0);
  EXPECT_LE(registry.counter("test.pool.handoffs",
                             /*deterministic=*/false)
                .value(),
            64u);
  // Idle time is recorded once per handoff.
  EXPECT_EQ(registry.log_histogram("test.pool.idle_seconds").count(),
            registry.counter("test.pool.handoffs",
                             /*deterministic=*/false)
                .value());
}

TEST(ThreadPoolMetrics, MakePoolMetricsNullRegistry) {
  EXPECT_EQ(obs::make_pool_metrics(nullptr, "x"), nullptr);
  obs::Registry registry;
  const auto metrics = obs::make_pool_metrics(&registry, "y");
  ASSERT_NE(metrics, nullptr);
  metrics->on_task_complete(0.01);
  EXPECT_EQ(
      registry.counter("y.tasks", /*deterministic=*/false).value(), 1u);
}

TEST(ParallelShards, ManyRoundsReuseOnePool) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    parallel_shards(pool, 8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 1600u);
}

TEST(PostBatch, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(256);
  {
    ThreadPool pool(4);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      tasks.emplace_back([&hits, i] {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.post_batch(tasks);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(PostBatch, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> none;
  pool.post_batch(none);
  EXPECT_EQ(pool.queue_depth(), 0u);
  // The pool stays usable after the no-op.
  std::atomic<int> runs{0};
  parallel_shards(pool, 4, [&runs](std::size_t) { ++runs; });
  EXPECT_EQ(runs.load(), 4);
}

TEST(PostBatch, SingleTaskBatch) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2);
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&runs] { ++runs; });
    pool.post_batch(tasks);
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(PostBatch, ObserverSeesEveryTaskOnceAtBatchDepth) {
  CountingObserver observer;
  {
    ThreadPool pool(4, &observer);
    std::vector<std::function<void()>> tasks(100, [] {});
    pool.post_batch(tasks);
  }
  EXPECT_EQ(observer.posts.load(), 100u);
  EXPECT_EQ(observer.completions.load(), 100u);
  EXPECT_EQ(observer.dequeues.load(), 100u);
  EXPECT_EQ(observer.nonnegative_queue.load(), 100u);
  // The whole batch becomes visible under one lock: every task reports
  // the post-batch depth, captured before any worker could dequeue.
  EXPECT_EQ(observer.max_depth.load(), 100u);
}

}  // namespace
}  // namespace piggyweb::util
