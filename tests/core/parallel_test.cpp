// ThreadPool::for_ranges: every index runs exactly once, results land in
// their own slots regardless of job count, exceptions propagate after the
// batch drains, and rng_for_index gives each grid point an independent
// deterministic stream — the contract the deterministic sweep runner
// (bench/harness.h SweepRunner, DESIGN.md §9) is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/rng.h"

namespace bsplogp::core {
namespace {

/// Adapts a per-index body to for_ranges' (begin, end) callback.
template <typename F>
auto each(F fn) {
  return [fn](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) fn(i);
  };
}

TEST(Parallel, HardwareJobsIsAtLeastOne) {
  EXPECT_GE(hardware_jobs(), 1);
}

TEST(Parallel, EveryIndexRunsExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ThreadPool pool(3);
  pool.for_ranges(n, each([&](std::size_t i) { hits[i] += 1; }));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, JobsOneRunsInlineOnTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  ThreadPool pool(0);
  pool.for_ranges(64, each([&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  }));
  EXPECT_TRUE(all_inline);
}

TEST(Parallel, ZeroItemBatchIsANoOp) {
  ThreadPool pool(3);
  pool.for_ranges(0, [&](std::size_t, std::size_t) { FAIL() << "ran"; });
}

TEST(Parallel, ResultsByIndexMatchSerialForEveryJobCount) {
  // The determinism contract: fn(i) depends only on i (its own rng stream),
  // results are committed by index, so the output vector is identical for
  // any job count.
  const std::size_t n = 64;
  auto run = [n](int jobs) {
    std::vector<std::uint64_t> out(n);
    ThreadPool pool(jobs - 1);
    pool.for_ranges(n, each([&](std::size_t i) {
      Rng rng = rng_for_index(12345, i);
      std::uint64_t acc = 0;
      for (int k = 0; k < 100; ++k) acc ^= rng();
      out[i] = acc;
    }));
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(7), serial);
}

TEST(Parallel, FirstExceptionPropagatesAfterTheBatchDrains) {
  const std::size_t n = 200;
  std::atomic<int> ran{0};
  ThreadPool pool(3);
  EXPECT_THROW(pool.for_ranges(n,
                               each([&](std::size_t i) {
                                 ran += 1;
                                 if (i == 37) throw std::runtime_error("boom");
                               }),
                               /*chunk=*/1),
               std::runtime_error);
  // One-item ranges: the remaining items still ran; nothing was abandoned
  // mid-batch.
  EXPECT_EQ(ran.load(), static_cast<int>(n));
}

TEST(Parallel, PoolIsReusableAcrossBatches) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  for (int batch = 0; batch < 5; ++batch) {
    std::atomic<std::int64_t> sum{0};
    pool.for_ranges(100, each([&](std::size_t i) {
      sum += static_cast<std::int64_t>(i);
    }));
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
}

TEST(Parallel, SweepChunkStaysWithinBounds) {
  // requested wins verbatim but is clamped to [1, n]; the automatic size
  // targets a few claims per thread and never exceeds n.
  EXPECT_EQ(sweep_chunk(100, 4, 7), 7u);
  EXPECT_EQ(sweep_chunk(100, 4, 1000), 100u);
  EXPECT_EQ(sweep_chunk(5, 4, 0), sweep_chunk(5, 4, 0));  // stable
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{1000}}) {
      const std::size_t c = sweep_chunk(n, threads, 0);
      EXPECT_GE(c, 1u);
      EXPECT_LE(c, n);
    }
  }
}

TEST(Parallel, ResultsMatchForPathologicalChunkSizes) {
  // Chunked range claims must not change what runs or where results land:
  // chunk 1 (maximal claim traffic), a prime that misaligns every range,
  // n (one chunk), and far beyond n (clamped) all produce the serial
  // output.
  const std::size_t n = 64;
  auto run = [n](int jobs, std::size_t chunk) {
    std::vector<std::uint64_t> out(n);
    ThreadPool pool(jobs - 1);
    pool.for_ranges(n,
                    each([&](std::size_t i) {
                      Rng rng = rng_for_index(4242, i);
                      out[i] = rng() ^ (rng() << 1);
                    }),
                    chunk);
    return out;
  };
  const auto serial = run(1, 0);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, n, n + 7}) {
    EXPECT_EQ(run(2, chunk), serial) << "chunk " << chunk;
    EXPECT_EQ(run(4, chunk), serial) << "chunk " << chunk;
  }
}

TEST(Parallel, PoolStaysReusableAfterAThrowingBatch) {
  // The S3 regression: a batch that throws must drain (every one-item
  // range still runs) and leave the pool fully usable for the next batch —
  // no wedged workers, no stale batch state, no re-thrown stale exception.
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.for_ranges(200,
                                 each([&](std::size_t i) {
                                   ran += 1;
                                   if (i == 17)
                                     throw std::runtime_error("boom");
                                 }),
                                 /*chunk=*/1),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 200);
    std::atomic<std::int64_t> sum{0};
    pool.for_ranges(100, each([&](std::size_t i) {
      sum += static_cast<std::int64_t>(i);
    }));
    EXPECT_EQ(sum.load(), 99 * 100 / 2);  // clean batch after the throw
  }
}

TEST(Parallel, ForRangesCoversEveryIndexExactlyOnce) {
  const std::size_t n = 257;  // prime: misaligns every chunk size
  std::vector<std::atomic<int>> hits(n);
  ThreadPool pool(3);
  pool.for_ranges(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, ForRangesThrowAbandonsOnlyItsOwnRange) {
  // The documented contract: a throwing range callback loses the rest of
  // that one range; every other range still runs and the first exception
  // is rethrown after the batch drains. The pool survives.
  ThreadPool pool(3);
  const std::size_t n = 100;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(pool.for_ranges(
                   n,
                   [&](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) {
                       if (i == 30) throw std::runtime_error("range boom");
                       hits[i] += 1;
                     }
                   },
                   /*chunk=*/10),
               std::runtime_error);
  int total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(hits[i].load(), 1) << i;  // never runs twice
    total += hits[i].load();
  }
  // Exactly the throwing range's tail [30, 40) is lost.
  EXPECT_EQ(total, static_cast<int>(n) - 10);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  for (std::size_t i = 40; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  std::atomic<int> ran{0};
  pool.for_ranges(50, [&](std::size_t b, std::size_t e) {
    ran += static_cast<int>(e - b);
  });
  EXPECT_EQ(ran.load(), 50);
}

TEST(Parallel, ZeroWorkerPoolRunsOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<int> hits(10, 0);
  pool.for_ranges(hits.size(), each([&](std::size_t i) { hits[i] += 1; }));
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, RngForIndexIsDeterministicPerIndex) {
  for (const std::size_t i : {0u, 1u, 5u, 1000u}) {
    Rng a = rng_for_index(99, i);
    Rng b = rng_for_index(99, i);
    for (int k = 0; k < 10; ++k) EXPECT_EQ(a(), b()) << i;
  }
}

TEST(Parallel, RngForIndexStreamsAreDistinct) {
  // Adjacent indices (and adjacent base seeds) must not collide — the
  // SplitMix64 scramble decorrelates the +index arithmetic.
  std::set<std::uint64_t> firsts;
  for (std::size_t i = 0; i < 64; ++i) {
    Rng rng = rng_for_index(7, i);
    firsts.insert(rng());
  }
  EXPECT_EQ(firsts.size(), 64u);
}

}  // namespace
}  // namespace bsplogp::core
