// Fixed-size worker pool with a shared FIFO work queue — the execution
// substrate for the parallel sharded evaluation engine (sim/parallel_eval).
//
// Design constraints, in order:
//   * determinism lives in the *callers*: the pool makes no ordering
//     promises beyond running every posted task exactly once, so anything
//     built on it must partition state by shard and merge commutatively;
//   * blocking barriers are explicit (util/parallel.h), not implicit —
//     posting is fire-and-forget;
//   * programming errors (posting after shutdown) abort via contracts, and
//     exceptions escaping a task abort too: tasks run on detached stacks
//     where nobody could catch them.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "util/guarded.h"

namespace piggyweb::util {

// Observation hook for pool instrumentation (obs::ThreadPoolMetrics is
// the production implementation). Methods are called concurrently from
// posting threads and workers, so implementations must be thread-safe.
// The hook lives in util so the pool does not depend on the obs layer.
// All timing is measured only while an observer is attached; the
// unobserved pool never reads the clock.
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;
  // After a task was enqueued; `queue_depth` is the depth including it.
  virtual void on_post(std::size_t queue_depth) = 0;
  // After a task ran for `run_seconds` of wall time.
  virtual void on_task_complete(double run_seconds) = 0;
  // After a task was dequeued: `queue_seconds` is its enqueue→dequeue
  // wait, `handoff` is true when the dequeuing worker had been blocked
  // on the condition variable (a producer→consumer wakeup, as opposed
  // to a busy worker draining the backlog). Default no-ops keep
  // pre-existing observers source-compatible.
  virtual void on_dequeue(double /*queue_seconds*/, bool /*handoff*/) {}
  // After a worker woke from an idle (empty-queue) wait that lasted
  // `idle_seconds`. Shutdown waits are not reported.
  virtual void on_worker_idle(double /*idle_seconds*/) {}
};

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1). A null observer (the
  // default) costs one branch per post/task; timing is only measured
  // when an observer is attached.
  explicit ThreadPool(std::size_t threads,
                      ThreadPoolObserver* observer = nullptr);

  // Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  // Enqueues a task; it runs on some worker, at some point, once.
  void post(std::function<void()> task);

  // Enqueues every task in `tasks` (each is moved from) under a single
  // mutex acquisition, then wakes workers once. A fork-join posting S
  // shard tasks pays one lock + one notify_all instead of S of each —
  // the dominant source of pool-queue contention on the windowed replay
  // path, where every window forks twice.
  void post_batch(std::span<std::function<void()>> tasks);

  // Instantaneous backlog (tasks enqueued but not yet dequeued). A
  // point-in-time read for progress reporting, stale by the time the
  // caller looks at it.
  std::size_t queue_depth() const;

  // Best-effort hardware concurrency, never 0.
  static std::size_t hardware_threads();

 private:
  struct Task {
    std::function<void()> fn;
    // Set only when an observer is attached (post() reads the clock
    // once per task in that case, never otherwise).
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Queue {
    std::deque<Task> tasks;
    bool stopping = false;
  };

  void worker_loop();

  Guarded<Queue> queue_;
  std::condition_variable wake_;
  ThreadPoolObserver* const observer_;  // fixed at construction
  std::vector<std::thread> workers_;
};

}  // namespace piggyweb::util
