// Deterministic fork-join parallelism for grid sweeps.
//
// Every experiment in the paper is a sweep — a grid over (p, L, G, h, g/G,
// l/L) — whose points are independent machine instantiations. ThreadPool
// runs such a batch data-parallel: workers claim contiguous index *ranges*
// (so uneven point costs still balance, but the per-claim atomic traffic
// and std::function dispatch are paid once per chunk, not once per point),
// while callers that want deterministic output commit results *by index*
// into pre-sized slots, never in completion order. The bench harness's
// SweepRunner (bench/harness.h) and the parameterized equivalence tests
// are the two sweep consumers; both pair each index with its own
// core::rng_for_index stream so results are independent of thread count,
// chunk size, and execution order. The native backend (src/native) runs
// its SPMD programs through for_spmd.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bsplogp::core {

/// Number of worker threads that saturates this host (>= 1).
[[nodiscard]] int hardware_jobs();

/// The chunk size a batch of `n` items will actually use on `threads`
/// total threads: `requested` if positive, else the BSPLOGP_SWEEP_CHUNK
/// environment override if set (pathological-size forcing for determinism
/// tests), else an automatic size targeting a few claims per thread.
/// Always in [1, n] for n >= 1.
[[nodiscard]] std::size_t sweep_chunk(std::size_t n, int threads,
                                      std::size_t requested);

/// A fixed-size worker pool for blocking, batch-at-a-time parallel loops.
/// One orchestrating thread submits batches via for_ranges()/for_spmd();
/// the pool is not a general task queue. Thread-compatible, not
/// thread-safe: concurrent batch calls from different threads are not
/// supported.
class ThreadPool {
 public:
  /// Spawns `workers` background threads (0 is valid: batches then run
  /// entirely on the calling thread).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

  /// Covers [0, n) exactly once, on the pool's workers plus the calling
  /// thread, and blocks until every range completed. Indices are claimed
  /// in chunks (see sweep_chunk; `chunk` forces a size) and fn(begin, end)
  /// is invoked once per claimed chunk, so per-item dispatch can be a
  /// direct (inlinable) call inside the callback; fn must not depend on
  /// execution order. A throwing callback abandons the *rest of its own
  /// range*; other ranges still run, the first exception (in completion
  /// order) is rethrown on the caller after the batch drains, and the pool
  /// stays reusable.
  void for_ranges(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t chunk = 0);

  /// SPMD batch: runs fn(i) for every i in [0, n) with every item on a
  /// *distinct* thread, all items live concurrently. This is the primitive
  /// the native shared-memory backend (src/native) builds on: unlike
  /// for_ranges, items may synchronize with each other (barriers,
  /// condition variables), because no thread ever claims a second item
  /// while holding the first. Requires n <= workers() + 1 — there must be
  /// a thread for every item or the batch would deadlock on its own
  /// synchronization. Exceptions propagate like for_ranges (first one is
  /// rethrown after the batch drains); items blocked on a sibling that
  /// threw must unblock themselves (see native::Barrier poisoning).
  void for_spmd(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Batch;

  void worker_loop();
  /// Hands `batch` to the workers, runs it on the calling thread too, and
  /// blocks until it drains; rethrows the batch's first exception.
  void launch_and_wait(const std::shared_ptr<Batch>& batch);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::shared_ptr<Batch> batch_;
  std::vector<std::thread> threads_;
};

}  // namespace bsplogp::core
