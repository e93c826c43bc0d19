// Fixture: lock-guarded-state. Analyzed as src/util/guarded_state.cc.
// One class with PW_GUARDED_BY members, exercised by clean accessors
// (RAII guards on the member and on a receiver, ctor/dtor) and two
// violations: a bare read and a use after an explicit unlock.
#include <mutex>
#include <vector>

namespace piggyweb::util {

class GuardedCounter {
 public:
  GuardedCounter() { value_ = 0; }   // ctor: exempt by design
  ~GuardedCounter() { value_ = 0; }  // dtor: exempt by design

  void add(long delta) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ += delta;
    history_.push_back(delta);
  }

  long snapshot() const {
    std::scoped_lock lock(mutex_);
    return value_;
  }

  long racy_peek() const {
    return value_;  // BAD: no lock held
  }

  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    history_.clear();
    lock.unlock();
    history_.shrink_to_fit();  // BAD: guard released above
  }

  static long drain_other(GuardedCounter& counter) {
    std::lock_guard<std::mutex> lock(counter.mutex_);
    counter.history_.clear();  // fine: the receiver's mutex is held
    return counter.value_;
  }

 private:
  mutable std::mutex mutex_;
  long value_ PW_GUARDED_BY(mutex_) = 0;
  std::vector<long> history_ PW_GUARDED_BY(mutex_);
};

}  // namespace piggyweb::util
