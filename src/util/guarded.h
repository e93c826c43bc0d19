// util::Guarded<T> — a value that owns its mutex and can be reached only
// with that mutex held.
//
// The lock discipline lives in the type: a Guarded<T> hands out its T
// only through lock(), whose handle holds the mutex for the handle's
// scope. Forgetting the lock is a compile error, not a race for TSan to
// catch on some path or an annotation for a linter to check:
//
//   util::Guarded<std::deque<Task>> queue_;
//   ...
//   auto queue = queue_.lock();   // mutex held from here ...
//   queue->push_back(task);
//   // ... to the end of the scope
//
// A condition variable waits through the handle's std::unique_lock:
//
//   auto state = state_.lock();
//   ready_.wait(state.unique_lock(), [&] { return state->done; });
//
// The const overload of lock() serves read-only methods (the mutex is
// mutable, as a lock taken to read is not a change of the value).
// Handles neither copy nor move: the value cannot outlive the scope
// that holds its lock.
#pragma once

#include <mutex>
#include <utility>

namespace piggyweb::util {

template <typename T>
class Guarded {
 public:
  // Scoped access: holds the mutex from lock() until the handle's end.
  template <typename U>
  class Handle {
   public:
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    U& operator*() const { return *value_; }
    U* operator->() const { return value_; }

    // For condition_variable::wait, which unlocks and relocks it; the
    // lock is held again whenever wait returns.
    std::unique_lock<std::mutex>& unique_lock() { return lock_; }

   private:
    friend class Guarded;
    Handle(std::mutex& mutex, U& value) : lock_(mutex), value_(&value) {}

    std::unique_lock<std::mutex> lock_;
    U* value_;
  };

  Guarded() = default;
  explicit Guarded(T value) : value_(std::move(value)) {}
  Guarded(const Guarded&) = delete;
  Guarded& operator=(const Guarded&) = delete;

  Handle<T> lock() { return Handle<T>(mutex_, value_); }
  Handle<const T> lock() const { return Handle<const T>(mutex_, value_); }

 private:
  mutable std::mutex mutex_;
  T value_{};
};

}  // namespace piggyweb::util
