// util::Guarded tests. The compile-time half pins that the value is
// reachable only through lock(); the runtime half runs under the tsan
// ctest label with the thread pool tests, so a sanitizer build checks
// the condition-variable handoff too.
#include "util/guarded.h"

#include <condition_variable>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace piggyweb::util {
namespace {

// Each concept names one way a caller could reach the value or its
// mutex; only the first may hold.
template <typename G>
concept ReachesValueThroughLock = requires(G& g) { *g.lock(); };
template <typename G>
concept NamesValueMember = requires(G& g) { g.value_; };
template <typename G>
concept NamesMutexMember = requires(G& g) { g.mutex_; };
template <typename G>
concept Dereferences = requires(G& g) { *g; };
template <typename G>
concept AssignsThroughConstLock = requires(const G& g) { *g.lock() = {}; };

using Counter = Guarded<int>;
using CounterHandle = decltype(std::declval<Counter&>().lock());
using ConstCounterHandle = decltype(std::declval<const Counter&>().lock());

static_assert(ReachesValueThroughLock<Counter>);
static_assert(!NamesValueMember<Counter>);
static_assert(!NamesMutexMember<Counter>);
static_assert(!Dereferences<Counter>);
static_assert(!std::is_convertible_v<Counter&, int&>);
static_assert(!AssignsThroughConstLock<Counter>);
static_assert(std::is_same_v<decltype(*std::declval<ConstCounterHandle&>()),
                             const int&>);
// A handle cannot be copied or moved out of the scope holding its lock.
static_assert(!std::is_copy_constructible_v<CounterHandle>);
static_assert(!std::is_move_constructible_v<CounterHandle>);
static_assert(!std::is_copy_constructible_v<Counter>);

// Whether another thread can take `mutex` right now.
bool free_for_another_thread(std::mutex& mutex) {
  bool taken = false;
  std::thread([&] {
    taken = mutex.try_lock();
    if (taken) mutex.unlock();
  }).join();
  return taken;
}

TEST(Guarded, ValueIsReachedThroughLock) {
  Guarded<std::vector<int>> values(std::vector<int>{1, 2});
  values.lock()->push_back(3);
  {
    auto handle = values.lock();
    EXPECT_TRUE(handle.unique_lock().owns_lock());
    (*handle)[0] = 7;
  }
  EXPECT_EQ(*values.lock(), (std::vector<int>{7, 2, 3}));
}

TEST(Guarded, ConstLockReadsTheSameValue) {
  Guarded<std::vector<int>> values;
  values.lock()->push_back(5);
  const auto& read_only = values;
  const auto handle = read_only.lock();
  EXPECT_EQ(handle->size(), 1u);
  EXPECT_EQ(handle->front(), 5);
}

TEST(Guarded, LockIsReleasedAtTheEndOfTheHandleScope) {
  Counter counter(1);
  std::mutex* mutex = nullptr;
  {
    auto handle = counter.lock();
    mutex = handle.unique_lock().mutex();
    EXPECT_FALSE(free_for_another_thread(*mutex));
    ++*handle;
  }
  EXPECT_TRUE(free_for_another_thread(*mutex));
  EXPECT_EQ(*counter.lock(), 2);
}

TEST(Guarded, ConditionVariableWaitsThroughTheHandle) {
  struct State {
    bool ready = false;
    int payload = 0;
  };
  Guarded<State> state;
  std::condition_variable changed;
  std::thread producer([&] {
    {
      auto s = state.lock();
      s->payload = 42;
      s->ready = true;
    }
    changed.notify_one();
  });
  {
    auto s = state.lock();
    changed.wait(s.unique_lock(), [&s] { return s->ready; });
    EXPECT_TRUE(s.unique_lock().owns_lock());
    EXPECT_EQ(s->payload, 42);
  }
  producer.join();
}

}  // namespace
}  // namespace piggyweb::util
