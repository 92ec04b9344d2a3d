#include "src/core/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "src/core/contracts.h"

namespace bsplogp::core {

int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

/// BSPLOGP_SWEEP_CHUNK, parsed once: the jobs-determinism ctest scripts
/// force pathological chunk sizes (1, odd, > n) through the environment to
/// prove chunking never leaks into results. 0 = not set / invalid.
std::size_t env_chunk_override() {
  static const std::size_t value = [] {
    const char* s = std::getenv("BSPLOGP_SWEEP_CHUNK");
    if (s == nullptr || *s == '\0') return std::size_t{0};
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    return (end != nullptr && *end == '\0') ? static_cast<std::size_t>(v)
                                            : std::size_t{0};
  }();
  return value;
}

}  // namespace

std::size_t sweep_chunk(std::size_t n, int threads, std::size_t requested) {
  if (n <= 1) return 1;
  std::size_t c = requested;
  if (c == 0) c = env_chunk_override();
  if (c == 0) {
    // ~4 claims per thread: enough slack for uneven point costs to
    // balance, few enough claims that dispatch stops mattering on tiny
    // grids (a 0.83x --jobs 2 sweep speedup was per-point claims).
    const auto t = static_cast<std::size_t>(std::max(threads, 1));
    c = (n + 4 * t - 1) / (4 * t);
  }
  return std::clamp<std::size_t>(c, 1, n);
}

/// One batch submission. Heap-allocated and shared with the workers so a
/// worker that wakes late (after the batch already drained) still holds a
/// valid object: it claims an out-of-range chunk and goes back to sleep
/// without ever touching the pool's next batch mid-setup.
struct ThreadPool::Batch {
  Batch(std::size_t n_items, std::size_t chunk_size,
        const std::function<void(std::size_t, std::size_t)>& f,
        bool one_claim_per_thread = false)
      : fn(f), n(n_items), chunk(chunk_size), one_shot(one_claim_per_thread) {}

  const std::function<void(std::size_t, std::size_t)>& fn;
  const std::size_t n;
  const std::size_t chunk;
  /// SPMD mode (for_spmd): a thread claims at most one chunk, so items can
  /// synchronize with each other without a claimer deadlocking on itself.
  const bool one_shot;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;

  /// Claims and runs chunks until the batch is exhausted. Safe to call
  /// from any number of threads. A throwing callback abandons only its
  /// own range; the chunk still counts as done so the batch drains.
  void run() {
    while (true) {
      const std::size_t b = next.fetch_add(chunk, std::memory_order_relaxed);
      if (b >= n) return;
      const std::size_t e = std::min(b + chunk, n);
      try {
        fn(b, e);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr) error = std::current_exception();
      }
      if (done.fetch_add(e - b, std::memory_order_acq_rel) + (e - b) == n) {
        { const std::lock_guard<std::mutex> lock(mu); }
        done_cv.notify_all();
      }
      if (one_shot) return;
    }
  }
};

ThreadPool::ThreadPool(int workers) {
  BSPLOGP_EXPECTS(workers >= 0);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::shared_ptr<Batch> batch = batch_;
    lock.unlock();
    batch->run();
    lock.lock();
  }
}

void ThreadPool::for_ranges(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t chunk) {
  if (n == 0) return;
  launch_and_wait(
      std::make_shared<Batch>(n, sweep_chunk(n, workers() + 1, chunk), fn));
}

void ThreadPool::for_spmd(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // One thread per item or the batch deadlocks on its own barriers.
  BSPLOGP_EXPECTS(n <= static_cast<std::size_t>(workers()) + 1);
  const std::function<void(std::size_t, std::size_t)> range_fn =
      [&fn](std::size_t b, std::size_t e) {
        BSPLOGP_ASSERT(e == b + 1);
        fn(b);
      };
  launch_and_wait(std::make_shared<Batch>(n, std::size_t{1}, range_fn,
                                          /*one_claim_per_thread=*/true));
}

void ThreadPool::launch_and_wait(const std::shared_ptr<Batch>& batch) {
  // The batch lives on the heap: stragglers from a previous generation may
  // still hold their (drained) batch while this one runs.
  if (!threads_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      batch_ = batch;
      ++generation_;
    }
    work_cv_.notify_all();
  }
  batch->run();  // the calling thread is always one of the workers
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->n;
  });
  if (batch->error != nullptr) std::rethrow_exception(batch->error);
}

}  // namespace bsplogp::core
