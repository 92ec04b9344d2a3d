// The native shared-memory SPMD backend: real threads, real
// synchronization.
//
// Everything else in this repository *simulates* cost — the machines
// charge model time but execute serially. This module is the repo's
// real-execution substrate: spawn(p, spmd) runs p program instances on p
// distinct OS threads (one per logical processor, dispatched through
// core::ThreadPool::for_spmd) that synchronize through one shared barrier:
//
//   native::spawn(p, [&](native::World& w) {
//     out[w.pid()] = compute(w.pid());     // write only your own slot
//     w.barrier();                         // every write is now visible
//     use(out[(w.pid() + 1) % w.nprocs()]);
//   });
//
// Data moves through ordinary shared memory; the barrier provides the
// happens-before between one superstep's writes and the next superstep's
// reads. The barrier is droppable and poisonable:
//   * a processor that returns from the spmd function stops participating
//     (it leaves the barrier, as BSPlib's bsp_end does), so siblings with
//     more supersteps to run never wait for it;
//   * a processor that throws poisons the barrier so its siblings unblock
//     (they observe AbortedError) and spawn() rethrows the original
//     exception.
//
// The measured-vs-modeled pipeline on top: native::run_bsp /
// native::run_logp (bsp_exec.h, logp_exec.h) execute the unmodified
// workload-registry programs on this backend, fit.h measures this
// machine's (g, l) / (L, o, G), and bench_native_vs_model overlays
// measured finish times against the simulators' predictions (DESIGN.md
// §12).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "src/core/contracts.h"
#include "src/core/parallel.h"
#include "src/core/types.h"

namespace bsplogp::native {

/// Thrown out of barrier()/arrive_and_wait() on processors parked in a
/// barrier that a sibling poisoned (because it failed). spawn() treats it
/// as secondary: the sibling's original exception is what propagates.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("native: SPMD sibling failed") {}
};

/// A poisonable, droppable cyclic barrier for `parties` threads.
/// Mutex/condvar, sense counted by phase: no thread can lap another, and a
/// poisoned barrier releases current and future waiters with AbortedError
/// instead of deadlocking the group on a failed sibling.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {
    BSPLOGP_EXPECTS(parties >= 1);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all current parties arrived (throws AbortedError if the
  /// barrier is or becomes poisoned).
  void arrive_and_wait();

  /// Permanently removes one party (a processor finishing its program).
  /// If the remaining waiters now form a full complement, they release.
  void drop();

  /// Poisons the barrier: every current and future arrive_and_wait()
  /// throws AbortedError.
  void poison();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
  std::uint64_t phase_ = 0;
  bool poisoned_ = false;
};

/// One processor's view of the SPMD world: identity and the collective
/// barrier. Valid only inside the spmd function it is passed to.
class World {
 public:
  /// Constructed by spawn(); binds processor `pid` of `nprocs` to the
  /// group's shared barrier.
  World(Barrier& barrier, ProcId nprocs, ProcId pid)
      : barrier_(barrier), nprocs_(nprocs), pid_(pid) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] ProcId pid() const { return pid_; }
  [[nodiscard]] ProcId nprocs() const { return nprocs_; }

  /// The collective superstep boundary: blocks until every processor still
  /// running has arrived. Executors (bsp_exec) exchange data through their
  /// own buffers between two barriers.
  void barrier() { barrier_.arrive_and_wait(); }

 private:
  Barrier& barrier_;
  ProcId nprocs_;
  ProcId pid_;
};

/// Runs `spmd` as p concurrent program instances, one per OS thread
/// (core::ThreadPool::for_spmd), and blocks until all return. With a null
/// pool a transient pool of p - 1 workers is spawned; a caller-provided
/// pool must have at least p - 1 workers and is reused across spawns
/// (the fitting layer and benches amortize thread start-up this way).
/// If an instance throws, the barrier is poisoned so siblings unblock,
/// and the first such exception is rethrown here.
void spawn(ProcId nprocs, const std::function<void(World&)>& spmd,
           core::ThreadPool* pool = nullptr);

}  // namespace bsplogp::native
