// Contract-checking macros in the spirit of the C++ Core Guidelines'
// Expects/Ensures. Violations are programming errors, never recoverable
// conditions, so they abort with a source location rather than throw.
//
// The checks stay on in release builds: the library is a simulator whose
// value is fidelity to the model rules, and silent rule violations would
// invalidate every measurement downstream. The predicates on hot paths are
// integer comparisons, and every engine throughput number
// (bench_engine_throughput, perfbench) is measured with them on.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace bsplogp::core::detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line) {
  std::fprintf(stderr, "bsplogp: %s violated: (%s) at %s:%d\n", kind, expr,
               file, line);
  std::abort();
}

}  // namespace bsplogp::core::detail

#define BSPLOGP_EXPECTS(cond)                                            \
  ((cond) ? static_cast<void>(0)                                         \
          : ::bsplogp::core::detail::contract_failure("precondition",    \
                                                      #cond, __FILE__,   \
                                                      __LINE__))

#define BSPLOGP_ENSURES(cond)                                             \
  ((cond) ? static_cast<void>(0)                                          \
          : ::bsplogp::core::detail::contract_failure("postcondition",    \
                                                      #cond, __FILE__,    \
                                                      __LINE__))

#define BSPLOGP_ASSERT(cond)                                              \
  ((cond) ? static_cast<void>(0)                                          \
          : ::bsplogp::core::detail::contract_failure("invariant", #cond, \
                                                      __FILE__, __LINE__))
