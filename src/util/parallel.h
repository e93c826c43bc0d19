// Blocking fork-join helper over a ThreadPool.
//
// It is a *barrier*: it returns only after every invocation of `fn` has
// finished, so callers may hand workers mutable references to disjoint
// shard state without further synchronisation. The first
// exception thrown by any invocation is rethrown on the calling thread
// after the barrier. Do not call it from inside a pool task — with
// every worker blocked on the barrier the nested tasks could never run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "util/expect.h"
#include "util/thread_pool.h"

namespace piggyweb::util {

namespace detail {

// Completion latch + first-exception capture shared by one fork-join.
struct JoinState {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending PW_GUARDED_BY(mutex) = 0;
  std::exception_ptr error PW_GUARDED_BY(mutex);

  void finish(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (e && !error) error = e;
    if (--pending == 0) done.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [this] { return pending == 0; });
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace detail

// Runs fn(shard) for every shard in [0, shards) across the pool's workers
// and blocks until all complete. Shard indices are a partition contract,
// not a schedule: any shard may run on any worker, concurrently with any
// other shard.
template <typename Fn>
void parallel_shards(ThreadPool& pool, std::size_t shards, const Fn& fn) {
  if (shards == 0) return;
  if (shards == 1 || pool.thread_count() == 1) {
    for (std::size_t s = 0; s < shards; ++s) fn(s);
    return;
  }
  detail::JoinState join;
  join.pending = shards;
  // All shard tasks enqueue under one pool-mutex acquisition; workers
  // wake once and drain. Posting one at a time made the pool queue the
  // hottest lock on the windowed replay path (two forks per window).
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    tasks.emplace_back([&join, &fn, s] {
      std::exception_ptr error;
      try {
        fn(s);
      } catch (...) {
        error = std::current_exception();
      }
      join.finish(error);
    });
  }
  pool.post_batch(tasks);
  join.wait();
}

}  // namespace piggyweb::util
