// Determinism guard for the scheduler rewrite: the calendar/bucket queue
// (SchedulerKind::Bucket) and the original priority-queue scheduler
// (SchedulerKind::ReferenceHeap) must produce bit-identical RunStats for
// identical seeds and options, across every AcceptOrder x DeliverySchedule
// combination and on workloads that exercise hotspot stalling, randomized
// traffic, and sparse timers beyond the wheel horizon. Engine invariants
// (capacity threshold, one delivery per destination per step) are asserted
// from the trace sink's Delivery events.
//
// The workloads come from the registry (workload::hotspot,
// workload::random_traffic). The accept x delivery x seed grids run on a
// core::ThreadPool: each point runs both schedulers on its own machines
// and commits the RunStats pair by index; the bit-identity
// assertions happen serially afterwards (gtest assertions are not
// thread-safe).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/core/parallel.h"
#include "src/logp/machine.h"
#include "src/trace/sink.h"
#include "src/workload/workload.h"

namespace bsplogp::logp {
namespace {

constexpr AcceptOrder kAccepts[] = {AcceptOrder::Fifo, AcceptOrder::Lifo,
                                    AcceptOrder::Random};
constexpr DeliverySchedule kDeliveries[] = {DeliverySchedule::Latest,
                                            DeliverySchedule::Earliest,
                                            DeliverySchedule::UniformRandom};

/// Sink that records each Delivery event's (destination, step), checking
/// that the medium never delivers twice to one destination in one step —
/// the successor of the old Options::on_delivery probe.
class DeliveryProbe final : public trace::TraceSink {
 public:
  void emit(const trace::Event& e) override {
    if (e.kind != trace::EventKind::Delivery) return;
    deliveries += 1;
    const bool fresh = delivered[e.proc].insert(e.t).second;
    EXPECT_TRUE(fresh) << "two deliveries to proc " << e.proc << " at step "
                       << e.t;
  }

  std::map<ProcId, std::set<Time>> delivered;
  std::int64_t deliveries = 0;
};

RunStats run_with(SchedulerKind sched, AcceptOrder accept,
                  DeliverySchedule delivery, std::uint64_t seed,
                  const Params& prm, ProcId p,
                  std::span<const ProgramFn> progs,
                  trace::TraceSink* sink = nullptr) {
  Machine::Options o;
  o.scheduler = sched;
  o.accept_order = accept;
  o.delivery = delivery;
  o.seed = seed;
  o.sink = sink;
  Machine m(p, prm, o);
  return m.run(progs);
}

/// One (accept, delivery, seed) policy-grid point.
struct PolicyPoint {
  AcceptOrder accept;
  DeliverySchedule delivery;
  std::uint64_t seed;
};

std::vector<PolicyPoint> policy_grid(std::vector<std::uint64_t> seeds) {
  std::vector<PolicyPoint> grid;
  for (const AcceptOrder ao : kAccepts)
    for (const DeliverySchedule ds : kDeliveries)
      for (const std::uint64_t seed : seeds)
        grid.push_back(PolicyPoint{ao, ds, seed});
  return grid;
}

struct SchedulerPair {
  RunStats bucket;
  RunStats heap;
};

TEST(SchedulerEquivalence, HotspotStatsBitIdenticalAcrossSchedulers) {
  const ProcId p = 17;
  const Params prm{16, 1, 4};  // capacity 4: heavy stalling
  const auto progs = workload::hotspot(p, 3);
  const auto grid = policy_grid({0, 1, 42});

  std::vector<SchedulerPair> results(grid.size());
  core::ThreadPool pool(core::hardware_jobs() - 1);
  pool.for_ranges(grid.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const PolicyPoint& pt = grid[i];
      results[i].bucket = run_with(SchedulerKind::Bucket, pt.accept,
                                   pt.delivery, pt.seed, prm, p, progs);
      results[i].heap = run_with(SchedulerKind::ReferenceHeap, pt.accept,
                                 pt.delivery, pt.seed, prm, p, progs);
    }
  });

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PolicyPoint& pt = grid[i];
    EXPECT_TRUE(results[i].bucket == results[i].heap)
        << "accept=" << static_cast<int>(pt.accept)
        << " delivery=" << static_cast<int>(pt.delivery)
        << " seed=" << pt.seed << " finish "
        << results[i].bucket.finish_time << " vs "
        << results[i].heap.finish_time;
    EXPECT_TRUE(results[i].bucket.completed());
  }
}

TEST(SchedulerEquivalence, RandomTrafficStatsBitIdenticalAcrossSchedulers) {
  const ProcId p = 12;
  const Params prm{12, 1, 3};
  const auto grid = policy_grid({7, 99});

  std::vector<SchedulerPair> results(grid.size());
  core::ThreadPool pool(core::hardware_jobs() - 1);
  pool.for_ranges(grid.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const PolicyPoint& pt = grid[i];
      const auto progs = workload::random_traffic(p, 12, 20, pt.seed);
      results[i].bucket = run_with(SchedulerKind::Bucket, pt.accept,
                                   pt.delivery, pt.seed, prm, p, progs);
      results[i].heap = run_with(SchedulerKind::ReferenceHeap, pt.accept,
                                 pt.delivery, pt.seed, prm, p, progs);
    }
  });

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PolicyPoint& pt = grid[i];
    EXPECT_TRUE(results[i].bucket == results[i].heap)
        << "accept=" << static_cast<int>(pt.accept)
        << " delivery=" << static_cast<int>(pt.delivery)
        << " seed=" << pt.seed;
    EXPECT_TRUE(results[i].bucket.completed());
  }
}

TEST(SchedulerEquivalence, SparseTimersCrossTheWheelHorizon) {
  // Compute jumps far beyond the 1024-step wheel window force events
  // through the bucket queue's overflow map.
  const ProcId p = 6;
  const Params prm{8, 1, 2};
  for (const std::uint64_t seed : {3u, 11u}) {
    const auto progs = workload::random_traffic(p, 6, 5000, seed);
    const RunStats bucket =
        run_with(SchedulerKind::Bucket, AcceptOrder::Fifo,
                 DeliverySchedule::Latest, seed, prm, p, progs);
    const RunStats heap =
        run_with(SchedulerKind::ReferenceHeap, AcceptOrder::Fifo,
                 DeliverySchedule::Latest, seed, prm, p, progs);
    EXPECT_TRUE(bucket == heap) << "seed=" << seed;
    EXPECT_TRUE(bucket.completed());
    EXPECT_GT(bucket.finish_time, 1024);  // the horizon was actually crossed
  }
}

TEST(SchedulerEquivalence, InvariantsHoldUnderStress) {
  // Randomized stress across the full policy grid: capacity never exceeds
  // ceil(L/G), the medium delivers at most one message per destination per
  // step, and every message is delivered within (accept, accept + L] —
  // observed through the trace sink's Delivery events. Serial on purpose:
  // the probe raises gtest assertions from inside emit().
  const ProcId p = 24;
  const Params prm{16, 2, 4};  // capacity 4
  const auto progs = workload::hotspot(p, 2);
  for (const AcceptOrder ao : kAccepts)
    for (const DeliverySchedule ds : kDeliveries) {
      DeliveryProbe probe;
      const RunStats st = run_with(SchedulerKind::Bucket, ao, ds, 5, prm, p,
                                   progs, &probe);
      EXPECT_TRUE(st.completed());
      EXPECT_LE(st.max_in_transit, prm.capacity());
      EXPECT_EQ(probe.deliveries, st.messages);
      EXPECT_EQ(st.messages, static_cast<Time>(p - 1) * 2);
    }
}

/// FNV-1a over 64-bit words, little-endian byte order.
class Fnv64 {
 public:
  void add(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (u >> (8 * byte)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_stats(const RunStats& st) {
  Fnv64 h;
  h.add(st.finish_time);
  h.add(static_cast<std::int64_t>(st.proc_finish.size()));
  for (const Time t : st.proc_finish) h.add(t);
  h.add(static_cast<std::int64_t>(st.blocked_procs.size()));
  for (const ProcId b : st.blocked_procs) h.add(b);
  for (const std::int64_t v :
       {st.messages, std::int64_t{st.deadlock}, std::int64_t{st.timed_out},
        st.messages_submitted, st.messages_acquired, st.events_processed,
        st.stall_events, st.stall_time_total, st.stall_time_max,
        st.max_in_transit, st.max_inbox})
    h.add(v);
  return h.value();
}

std::uint64_t hash_events(const std::vector<trace::Event>& events) {
  Fnv64 h;
  h.add(static_cast<std::int64_t>(events.size()));
  for (const trace::Event& e : events)
    for (const std::int64_t v :
         {static_cast<std::int64_t>(e.kind), std::int64_t{e.proc}, e.t,
          std::int64_t{e.peer}, e.t2, e.a, e.b, e.idx})
      h.add(v);
  return h.value();
}

TEST(SchedulerEquivalence, GoldenStallingHotspotPerPolicy) {
  // Pinned hashes of RunStats and of the full event stream for a stalling
  // k-hotspot under every AcceptOrder x DeliverySchedule. Both schedulers
  // share the acceptance and stall bookkeeping (handle_accept), so only a
  // golden pin — not the Bucket-vs-Heap comparison above — catches a
  // change there that alters which submission is accepted when, or the
  // order of the StallBegin records.
  struct Golden {
    AcceptOrder accept;
    DeliverySchedule delivery;
    std::uint64_t stats;
    std::uint64_t events;
  };
  constexpr Golden kGolden[] = {
      {AcceptOrder::Fifo, DeliverySchedule::Latest,
       0xf0b7f502d6417c15ULL, 0x0abc59a998b2e32dULL},
      {AcceptOrder::Fifo, DeliverySchedule::Earliest,
       0x4b27567a51ac59eaULL, 0xbec7827c573a62f6ULL},
      {AcceptOrder::Fifo, DeliverySchedule::UniformRandom,
       0x73ef7dc67263cf7eULL, 0x1ba3d4fc625b3d7eULL},
      {AcceptOrder::Lifo, DeliverySchedule::Latest,
       0xc430baacf25d0ca3ULL, 0xcc50daa7a5fadfa7ULL},
      {AcceptOrder::Lifo, DeliverySchedule::Earliest,
       0x6a280766db2ab168ULL, 0x0a6a0d36748b7e8bULL},
      {AcceptOrder::Lifo, DeliverySchedule::UniformRandom,
       0xef1f60841dd34008ULL, 0x44d79415787cb577ULL},
      {AcceptOrder::Random, DeliverySchedule::Latest,
       0x4ea633764abb2554ULL, 0x3c9e7b2c9eaa5c0bULL},
      {AcceptOrder::Random, DeliverySchedule::Earliest,
       0x151aafd03cf28b04ULL, 0x3afb9c9ef2144877ULL},
      {AcceptOrder::Random, DeliverySchedule::UniformRandom,
       0x95fed4a66d13e1f2ULL, 0x956d71883d3eb4a0ULL},
  };
  const ProcId p = 17;
  const Params prm{16, 1, 4};  // capacity 4 against 16 senders
  const auto progs = workload::hotspot(p, 3);
  for (const Golden& g : kGolden)
    for (const SchedulerKind sched :
         {SchedulerKind::Bucket, SchedulerKind::ReferenceHeap}) {
      trace::RecordingSink rec;
      const RunStats st =
          run_with(sched, g.accept, g.delivery, 42, prm, p, progs, &rec);
      ASSERT_GT(st.stall_events, 0);
      EXPECT_EQ(hash_stats(st), g.stats)
          << "accept=" << static_cast<int>(g.accept)
          << " delivery=" << static_cast<int>(g.delivery)
          << " scheduler=" << static_cast<int>(sched);
      EXPECT_EQ(hash_events(rec.events()), g.events)
          << "accept=" << static_cast<int>(g.accept)
          << " delivery=" << static_cast<int>(g.delivery)
          << " scheduler=" << static_cast<int>(sched);
    }
}

TEST(SchedulerEquivalence, EventsProcessedMatchesAcrossSchedulers) {
  const ProcId p = 9;
  const Params prm{8, 1, 2};
  const auto progs = workload::hotspot(p, 2);
  const RunStats bucket =
      run_with(SchedulerKind::Bucket, AcceptOrder::Fifo,
               DeliverySchedule::Latest, 0, prm, p, progs);
  const RunStats heap =
      run_with(SchedulerKind::ReferenceHeap, AcceptOrder::Fifo,
               DeliverySchedule::Latest, 0, prm, p, progs);
  EXPECT_GT(bucket.events_processed, 0);
  EXPECT_EQ(bucket.events_processed, heap.events_processed);
}

}  // namespace
}  // namespace bsplogp::logp
