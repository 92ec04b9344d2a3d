// The native SPMD backend's primitives: spawn placement, barrier
// visibility, registered-variable put/get semantics, failure handling.
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
  int syncs = 0;
  spawn(1, [&](World& w) {
    var<Word> x(w, 7);
    w.put(0, Word{42}, x);
    w.sync();
    syncs += 1;
    EXPECT_EQ(x.value(), 42);
  });
  EXPECT_EQ(syncs, 1);
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

TEST(NativeSpmd, PutDeliversAtSync) {
  const ProcId p = 5;
  std::vector<Word> after(static_cast<std::size_t>(p), -1);
  spawn(p, [&](World& w) {
    var<Word> x(w, Word{-1});
    const auto right = static_cast<ProcId>((w.pid() + 1) % p);
    w.put(right, static_cast<Word>(w.pid()), x);
    EXPECT_EQ(x.value(), -1);  // buffered, not yet applied
    w.sync();
    after[static_cast<std::size_t>(w.pid())] = x.value();
  });
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(after[static_cast<std::size_t>(i)], (i + p - 1) % p);
}

TEST(NativeSpmd, GetReadsThePrePutValue) {
  const ProcId p = 4;
  std::vector<Word> got(static_cast<std::size_t>(p), -1);
  std::vector<Word> landed(static_cast<std::size_t>(p), -1);
  spawn(p, [&](World& w) {
    var<Word> x(w, static_cast<Word>(w.pid()));
    const auto right = static_cast<ProcId>((w.pid() + 1) % p);
    future<Word> f = w.get(right, x);
    w.put(right, 100 + static_cast<Word>(w.pid()), x);
    w.sync();
    // The get resolved against the neighbor's value as of the start of the
    // sync — before the same superstep's puts landed (bsp_get semantics).
    got[static_cast<std::size_t>(w.pid())] = f.value();
    landed[static_cast<std::size_t>(w.pid())] = x.value();
  });
  for (ProcId i = 0; i < p; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], (i + 1) % p);
    EXPECT_EQ(landed[static_cast<std::size_t>(i)], 100 + (i + p - 1) % p);
  }
}

TEST(NativeSpmd, RacingPutsResolveInSenderIdOrder) {
  const ProcId p = 6;
  Word winner = -1;
  spawn(p, [&](World& w) {
    var<Word> x(w, Word{-1});
    w.put(0, static_cast<Word>(w.pid()), x);  // everyone targets pid 0
    w.sync();
    if (w.pid() == 0) winner = x.value();
  });
  EXPECT_EQ(winner, p - 1);  // highest sender id applies last
}

TEST(NativeSpmd, ValuesChainAcrossSupersteps) {
  const ProcId p = 4;
  const int rounds = 10;
  std::vector<Word> final_values(static_cast<std::size_t>(p), -1);
  spawn(p, [&](World& w) {
    var<Word> x(w, static_cast<Word>(w.pid()));
    for (int r = 0; r < rounds; ++r) {
      w.put(static_cast<ProcId>((w.pid() + 1) % p), x.value(), x);
      w.sync();
    }
    final_values[static_cast<std::size_t>(w.pid())] = x.value();
  });
  // Rotating the initial values `rounds` times.
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(final_values[static_cast<std::size_t>(i)],
              ((i - rounds) % p + p) % p);
}

TEST(NativeSpmd, ThrowingProcessorPropagatesItsOwnException) {
  const ProcId p = 4;
  try {
    spawn(p, [&](World& w) {
      if (w.pid() == 2) throw std::runtime_error("proc 2 boom");
      // Siblings park in the barrier; the poisoned barrier must unblock
      // them (as AbortedError, swallowed by spawn) instead of deadlocking.
      for (int r = 0; r < 3; ++r) w.sync();
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

TEST(NativeSpmd, FutureCopiesShareTheResolvedValue) {
  spawn(2, [&](World& w) {
    var<Word> x(w, static_cast<Word>(10 + w.pid()));
    future<Word> f = w.get(static_cast<ProcId>(1 - w.pid()), x);
    future<Word> copy = f;  // copies observe the same resolution
    w.sync();
    EXPECT_EQ(f.value(), 10 + (1 - w.pid()));
    EXPECT_EQ(copy.value(), f.value());
  });
}

}  // namespace
}  // namespace bsplogp::native
