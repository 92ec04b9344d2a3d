// Direct unit coverage for the calendar-queue scheduler's edges —
// previously reached only indirectly through scheduler_equivalence:
// overflow spill past the wheel horizon, migration ordering against direct
// wheel pushes, the wheel-empty jump to the overflow minimum time, the
// payload pool's slot recycling, and the never-into-the-past contract.
// Throughout, HeapQueue below is the ordering oracle: the textbook binary
// heap over (time, phase, push sequence) must pop any pushed stream in the
// same order as the calendar queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "src/core/rng.h"
#include "src/core/types.h"
#include "src/logp/event_queue.h"

namespace bsplogp::logp::detail {
namespace {

// The wheel horizon in event_queue.h (kWheelBits = 10). Mirrored here so a
// wheel resize breaks this test loudly instead of silently weakening it.
constexpr Time kHorizon = 1024;

/// The ordering oracle: a binary heap keyed by (t, phase, push sequence),
/// on payload-free events.
class HeapQueue {
 public:
  void push(Time t, Phase phase, EventKind kind, ProcId proc) {
    heap_.push_back(Entry{t, phase, next_seq_++, proc, kind});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry e = heap_.back();
    heap_.pop_back();
    return Event{e.t, e.proc, kNoPayload, e.kind};
  }

 private:
  struct Entry {
    Time t;
    Phase phase;
    std::int64_t seq;  // FIFO tie-break
    ProcId proc;
    EventKind kind;
  };
  static bool later(const Entry& a, const Entry& b) {
    return std::tie(a.t, a.phase, a.seq) > std::tie(b.t, b.phase, b.seq);
  }
  std::vector<Entry> heap_;
  std::int64_t next_seq_ = 0;
};

struct Popped {
  Time t;
  ProcId proc;
  EventKind kind;
  bool operator==(const Popped&) const = default;
};

template <class Queue>
std::vector<Popped> drain(Queue& q) {
  std::vector<Popped> out;
  while (!q.empty()) {
    const Event ev = q.pop();
    out.push_back(Popped{ev.t, ev.proc, ev.kind});
  }
  return out;
}

TEST(EventQueue, PopsTimePhaseFifoOrder) {
  // Same step, pushed in reverse phase order; plus a later step pushed
  // first. Pop must yield time-major, phase-minor, FIFO within a lane.
  const auto run = [](auto& q) {
    q.push(7, Phase::Processor, EventKind::Resume, 3);
    q.push(2, Phase::Accept, EventKind::Accept, 0);
    q.push(2, Phase::Processor, EventKind::Submit, 1);
    q.push(2, Phase::Processor, EventKind::Submit, 2);
    q.push(2, Phase::Delivery, EventKind::Delivery, 4);
    return drain(q);
  };
  const std::vector<Popped> want = {
      {2, 4, EventKind::Delivery}, {2, 1, EventKind::Submit},
      {2, 2, EventKind::Submit},   {2, 0, EventKind::Accept},
      {7, 3, EventKind::Resume},
  };
  EventQueue bucket;
  HeapQueue heap;
  EXPECT_EQ(run(bucket), want);
  EXPECT_EQ(run(heap), want);
}

TEST(EventQueue, OverflowSpillMigratesInOrder) {
  // Events beyond cur + 1024 land in the overflow lane. Interleave
  // beyond-horizon pushes with a (later) direct wheel push at the same
  // time: after migration both kinds must drain FIFO per (t, phase),
  // overflow entries first — they were pushed first.
  //
  // The stepping-stone event at t = 600 makes this a genuine race: popping
  // it moves the cursor — and the horizon — past `far` in one scan jump,
  // and the push at `far` that follows goes directly into the wheel lane.
  // Migration must already have run at the scanned-to cursor (not just at
  // the pre-scan one), or the direct push would order ahead of the
  // earlier-pushed overflow entries and diverge from the heap.
  constexpr Time far = kHorizon + 500;  // beyond the horizon from t = 0
  const auto run = [](auto& q) {
    q.push(0, Phase::Processor, EventKind::Start, 0);
    q.push(600, Phase::Processor, EventKind::Resume, 9);
    q.push(far, Phase::Processor, EventKind::Resume, 1);
    q.push(far + 1, Phase::Processor, EventKind::Resume, 2);
    q.push(far, Phase::Processor, EventKind::Resume, 3);

    EXPECT_EQ(q.pop().proc, 0);
    EXPECT_EQ(q.pop().proc, 9);  // cursor now at 600; far is in horizon
    // Direct wheel push at the same step must queue behind the migrated
    // entries.
    q.push(far, Phase::Processor, EventKind::Resume, 4);
    return drain(q);
  };
  const std::vector<Popped> want = {
      {far, 1, EventKind::Resume},
      {far, 3, EventKind::Resume},
      {far, 4, EventKind::Resume},
      {far + 1, 2, EventKind::Resume},
  };
  EventQueue bucket;
  HeapQueue heap;
  EXPECT_EQ(run(bucket), want);
  EXPECT_EQ(run(heap), want);
}

TEST(EventQueue, EmptyWheelJumpsToOverflowMinTime) {
  EventQueue q;
  q.push(0, Phase::Processor, EventKind::Start, 0);
  // Two overflow generations: one just past the horizon, one far past it.
  q.push(kHorizon + 7, Phase::Accept, EventKind::Accept, 1);
  q.push(10 * kHorizon, Phase::Delivery, EventKind::Delivery, 2);
  EXPECT_EQ(q.pop().proc, 0);
  // The wheel is now empty; pop must jump to the overflow minimum, not
  // scan 1024 empty steps per generation.
  Event ev = q.pop();
  EXPECT_EQ(ev.t, kHorizon + 7);
  EXPECT_EQ(ev.proc, 1);
  ev = q.pop();
  EXPECT_EQ(ev.t, 10 * kHorizon);
  EXPECT_EQ(ev.proc, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PayloadPoolRoundTripAndRecycling) {
  EventQueue q;
  const Message a{0, 1, 42, 7, 9, 2};
  const Message b{3, 1, 43, 8, 10, 1};
  q.push_msg(1, Phase::Delivery, EventKind::Delivery, 1, a);
  q.push_msg(2, Phase::Delivery, EventKind::Delivery, 1, b);

  Event ev = q.pop();
  ASSERT_NE(ev.payload, kNoPayload);
  const Message& got_a = q.payload(ev.payload);
  EXPECT_EQ(got_a.payload, a.payload);
  EXPECT_EQ(got_a.tag, a.tag);
  EXPECT_EQ(got_a.src, a.src);
  const PayloadSlot first_slot = ev.payload;
  q.release(ev.payload);

  // A released slot is recycled by the next push_msg (LIFO free list) —
  // the pool must not grow while in-flight count does not.
  q.push_msg(3, Phase::Delivery, EventKind::Delivery, 1, a);
  ev = q.pop();  // b at t = 2
  EXPECT_EQ(q.payload(ev.payload).payload, b.payload);
  q.release(ev.payload);
  ev = q.pop();  // recycled a at t = 3
  EXPECT_EQ(ev.payload, first_slot);
  EXPECT_EQ(q.payload(ev.payload).payload, a.payload);
  q.release(ev.payload);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BucketMatchesHeapOnRandomStreams) {
  // Randomized differential: any interleaving of pushes and pops (with
  // pushes never into the past) yields the same pop order on the calendar
  // queue and the heap. Seeds cover wraps of the wheel and overflow spills.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    EventQueue bucket;
    HeapQueue heap;
    core::Rng rng(seed);
    Time now = 0;
    std::vector<Popped> got_bucket;
    std::vector<Popped> got_heap;
    int pushed = 0;
    int popped = 0;
    while (popped < 4000) {
      const bool do_push =
          pushed < 4000 && (popped == pushed || rng.below(100) < 55);
      if (do_push) {
        // Mix near-future (wheel) and far-future (overflow) times.
        const Time dt = rng.below(100) < 85
                            ? static_cast<Time>(rng.below(64))
                            : static_cast<Time>(1000 + rng.below(3000));
        const auto phase = static_cast<Phase>(rng.below(3));
        const auto proc = static_cast<ProcId>(pushed);
        bucket.push(now + dt, phase, EventKind::Resume, proc);
        heap.push(now + dt, phase, EventKind::Resume, proc);
        pushed += 1;
      } else {
        const Event eb = bucket.pop();
        const Event eh = heap.pop();
        got_bucket.push_back(Popped{eb.t, eb.proc, eb.kind});
        got_heap.push_back(Popped{eh.t, eh.proc, eh.kind});
        ASSERT_GE(eb.t, now) << "seed " << seed;
        now = eb.t;  // future pushes respect the no-past contract
        popped += 1;
      }
    }
    EXPECT_EQ(got_bucket, got_heap) << "seed " << seed;
    EXPECT_TRUE(bucket.empty());
    EXPECT_TRUE(heap.empty());
  }
}

TEST(EventQueueDeathTest, PushIntoThePastAborts) {
  EventQueue q;
  q.push(50, Phase::Processor, EventKind::Resume, 0);
  (void)q.pop();  // cursor is now at t = 50
  EXPECT_DEATH(q.push(10, Phase::Processor, EventKind::Resume, 1),
               "invariant");
}

}  // namespace
}  // namespace bsplogp::logp::detail
