#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "util/expect.h"

namespace piggyweb::util {

ThreadPool::ThreadPool(std::size_t threads, ThreadPoolObserver* observer)
    : observer_(observer) {
  const auto count = std::max<std::size_t>(1, threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.lock()->stopping = true;
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> task) {
  PW_EXPECT(task != nullptr);
  Task entry{std::move(task), {}};
  if (observer_ != nullptr) {
    entry.enqueued = std::chrono::steady_clock::now();
  }
  std::size_t depth = 0;
  {
    auto queue = queue_.lock();
    PW_EXPECT(!queue->stopping);
    queue->tasks.push_back(std::move(entry));
    depth = queue->tasks.size();
  }
  wake_.notify_one();
  if (observer_ != nullptr) observer_->on_post(depth);
}

void ThreadPool::post_batch(std::span<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  std::chrono::steady_clock::time_point enqueued;
  if (observer_ != nullptr) {
    enqueued = std::chrono::steady_clock::now();
  }
  std::size_t depth = 0;
  {
    auto queue = queue_.lock();
    PW_EXPECT(!queue->stopping);
    for (auto& task : tasks) {
      PW_EXPECT(task != nullptr);
      queue->tasks.push_back(Task{std::move(task), enqueued});
    }
    depth = queue->tasks.size();
  }
  if (tasks.size() == 1) {
    wake_.notify_one();
  } else {
    wake_.notify_all();
  }
  if (observer_ != nullptr) {
    // Report the post-batch depth for every task: the batch became
    // visible to workers atomically, so intermediate depths never
    // existed outside the lock.
    for (std::size_t i = 0; i < tasks.size(); ++i) observer_->on_post(depth);
  }
}

std::size_t ThreadPool::queue_depth() const {
  return queue_.lock()->tasks.size();
}

std::size_t ThreadPool::hardware_threads() {
  const auto n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    bool waited = false;
    double idle_seconds = 0;
    {
      auto queue = queue_.lock();
      const auto ready = [&queue] {
        return queue->stopping || !queue->tasks.empty();
      };
      if (observer_ != nullptr && !ready()) {
        // The worker is about to block: time the idle interval. The
        // wakeup that ends it is a handoff — the task it dequeues was
        // handed to a sleeping worker rather than drained by a busy one.
        const auto idle_start = std::chrono::steady_clock::now();
        wake_.wait(queue.unique_lock(), ready);
        idle_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - idle_start)
                           .count();
        waited = true;
      } else {
        wake_.wait(queue.unique_lock(), ready);
      }
      if (queue->tasks.empty()) return;  // stopping and drained
      task = std::move(queue->tasks.front());
      queue->tasks.pop_front();
    }
    if (observer_ != nullptr) {
      const auto dequeued = std::chrono::steady_clock::now();
      if (waited) observer_->on_worker_idle(idle_seconds);
      observer_->on_dequeue(
          std::chrono::duration<double>(dequeued - task.enqueued).count(),
          waited);
      const auto start = std::chrono::steady_clock::now();
      task.fn();
      observer_->on_task_complete(std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - start)
                                      .count());
    } else {
      task.fn();
    }
  }
}

}  // namespace piggyweb::util
