// Lightweight contract checking, in the spirit of the Core Guidelines'
// Expects()/Ensures(). Violations indicate programming errors, not runtime
// conditions, so they abort with a message rather than throwing.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace piggyweb::util {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line) {
  std::fprintf(stderr, "piggyweb: %s failed: %s (%s:%d)\n", kind, expr, file,
               line);
  std::abort();
}

[[noreturn]] inline void bounds_failure(const char* index_expr,
                                        const char* bound_expr,
                                        unsigned long long index,
                                        unsigned long long bound,
                                        const char* file, int line) {
  std::fprintf(stderr,
               "piggyweb: bounds check failed: %s = %llu, %s = %llu (%s:%d)\n",
               index_expr, index, bound_expr, bound, file, line);
  std::abort();
}

// Out-of-line check so PW_EXPECT_BOUNDS evaluates its arguments once.
inline void expect_bounds(unsigned long long index, unsigned long long bound,
                          const char* index_expr, const char* bound_expr,
                          const char* file, int line) {
  if (index >= bound) {
    bounds_failure(index_expr, bound_expr, index, bound, file, line);
  }
}

}  // namespace piggyweb::util

// Precondition on function arguments / object state.
#define PW_EXPECT(cond)                                                   \
  ((cond) ? static_cast<void>(0)                                          \
          : ::piggyweb::util::contract_failure("precondition", #cond,    \
                                               __FILE__, __LINE__))

// Postcondition / internal invariant.
#define PW_ENSURE(cond)                                                   \
  ((cond) ? static_cast<void>(0)                                          \
          : ::piggyweb::util::contract_failure("invariant", #cond,       \
                                               __FILE__, __LINE__))

// Index-in-bounds precondition: aborts unless 0 <= i < n, printing both
// values. A negative signed index wraps to a huge unsigned value and
// fails the check.
#define PW_EXPECT_BOUNDS(i, n)                                            \
  ::piggyweb::util::expect_bounds(static_cast<unsigned long long>(i),     \
                                  static_cast<unsigned long long>(n),     \
                                  #i, #n, __FILE__, __LINE__)

// Marks code that must be unreachable (exhaustive switches, contradicted
// invariants). Always aborts; never compiles out.
#define PW_UNREACHABLE()                                                  \
  ::piggyweb::util::contract_failure("unreachable", "PW_UNREACHABLE()",   \
                                     __FILE__, __LINE__)

