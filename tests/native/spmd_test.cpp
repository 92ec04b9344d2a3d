// The native SPMD backend's primitives: spawn placement, barrier
// visibility, early-return leave, failure handling, pool reuse.
#include "src/native/spmd.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/types.h"

namespace bsplogp::native {
namespace {

TEST(NativeSpmd, SpawnRunsEveryPidOnItsOwnThread) {
  const ProcId p = 6;
  std::vector<ProcId> pids(6, -1);
  std::vector<std::thread::id> tids(6);
  spawn(p, [&](World& w) {
    EXPECT_EQ(w.nprocs(), p);
    pids[static_cast<std::size_t>(w.pid())] = w.pid();
    tids[static_cast<std::size_t>(w.pid())] = std::this_thread::get_id();
    // All instances are live concurrently: the barrier can only release if
    // every pid reached it, which a sequential execution never would.
    w.barrier();
  });
  for (ProcId i = 0; i < p; ++i) EXPECT_EQ(pids[static_cast<std::size_t>(i)], i);
  const std::set<std::thread::id> distinct(tids.begin(), tids.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(p));
}

TEST(NativeSpmd, SingleProcessorWorldWorks) {
  int barriers = 0;
  spawn(1, [&](World& w) {
    EXPECT_EQ(w.pid(), 0);
    EXPECT_EQ(w.nprocs(), 1);
    w.barrier();  // a group of one releases at once
    barriers += 1;
  });
  EXPECT_EQ(barriers, 1);
}

TEST(NativeSpmd, BarrierPublishesWrites) {
  const ProcId p = 8;
  std::vector<Word> slots(static_cast<std::size_t>(p), 0);
  std::vector<Word> sums(static_cast<std::size_t>(p), 0);
  spawn(p, [&](World& w) {
    slots[static_cast<std::size_t>(w.pid())] = w.pid() + 1;
    w.barrier();
    Word sum = 0;
    for (const Word v : slots) sum += v;
    sums[static_cast<std::size_t>(w.pid())] = sum;
  });
  for (const Word s : sums) EXPECT_EQ(s, p * (p + 1) / 2);
}

TEST(NativeSpmd, ThrowingProcessorPropagatesItsOwnException) {
  const ProcId p = 4;
  try {
    spawn(p, [&](World& w) {
      if (w.pid() == 2) throw std::runtime_error("proc 2 boom");
      // Siblings park in the barrier; the poisoned barrier must unblock
      // them (as AbortedError, swallowed by spawn) instead of deadlocking.
      for (int r = 0; r < 3; ++r) w.barrier();
    });
    FAIL() << "spawn should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "proc 2 boom");
  }
}

TEST(NativeSpmd, EarlyReturnersLeaveTheBarrierGroup) {
  const ProcId p = 5;
  std::vector<int> rounds_done(static_cast<std::size_t>(p), 0);
  spawn(p, [&](World& w) {
    // Processor i participates in i+1 supersteps, then leaves (bsp_end
    // style); the remaining group keeps synchronizing.
    for (ProcId r = 0; r <= w.pid(); ++r) {
      w.barrier();
      rounds_done[static_cast<std::size_t>(w.pid())] += 1;
    }
  });
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(rounds_done[static_cast<std::size_t>(i)], i + 1);
}

TEST(NativeSpmd, SharedPoolIsReusableAcrossSpawnsAndBatches) {
  core::ThreadPool pool(7);
  for (int iter = 0; iter < 3; ++iter) {
    std::atomic<int> visits{0};
    spawn(8, [&](World& w) {
      w.barrier();
      visits.fetch_add(1, std::memory_order_relaxed);
    }, &pool);
    EXPECT_EQ(visits.load(), 8);
  }
  // The pool still serves ordinary data-parallel batches afterwards.
  std::vector<int> marks(64, 0);
  pool.for_ranges(64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) marks[i] = 1;
  });
  for (const int m : marks) EXPECT_EQ(m, 1);
}

}  // namespace
}  // namespace bsplogp::native
