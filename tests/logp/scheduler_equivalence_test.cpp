// Determinism guard for the LogP engine: for identical seeds and options,
// every AcceptOrder x DeliverySchedule combination must reproduce pinned
// hashes of its RunStats and of its full event stream, on workloads that
// exercise hotspot stalling, randomized traffic, and sparse timers beyond
// the calendar queue's wheel horizon. The pins were taken when a second,
// priority-queue scheduler still ran beside the calendar queue, and both
// replayed every pinned point identically. Engine invariants (capacity
// threshold, one delivery per destination per step) are asserted from the
// trace sink's Delivery events.
//
// The workloads come from the registry (workload::hotspot,
// workload::random_traffic).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "src/logp/machine.h"
#include "src/trace/sink.h"
#include "src/workload/workload.h"
#include "tests/support/fnv64.h"

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

RunStats run_with(AcceptOrder accept, DeliverySchedule delivery,
                  std::uint64_t seed, const Params& prm, ProcId p,
                  std::span<const ProgramFn> progs,
                  trace::TraceSink* sink = nullptr) {
  Machine::Options o;
  o.accept_order = accept;
  o.delivery = delivery;
  o.seed = seed;
  o.sink = sink;
  Machine m(p, prm, o);
  return m.run(progs);
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
      const RunStats st = run_with(ao, ds, 5, prm, p, progs, &probe);
      EXPECT_TRUE(st.completed());
      EXPECT_LE(st.max_in_transit, prm.capacity());
      EXPECT_EQ(probe.deliveries, st.messages);
      EXPECT_EQ(st.messages, static_cast<Time>(p - 1) * 2);
    }
}

using testsupport::Fnv64;

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

/// A pinned point: the policies, the seed (of the machine's Random
/// policies, and of the workload where it is random) and the two hashes.
struct Golden {
  AcceptOrder accept;
  DeliverySchedule delivery;
  std::uint64_t seed;
  std::uint64_t stats;
  std::uint64_t events;
};

/// Runs one pinned point traced and checks both hashes against its pins.
RunStats expect_golden(const Golden& g, const Params& prm, ProcId p,
                       std::span<const ProgramFn> progs) {
  SCOPED_TRACE(testing::Message()
               << "accept=" << static_cast<int>(g.accept)
               << " delivery=" << static_cast<int>(g.delivery)
               << " seed=" << g.seed);
  trace::RecordingSink rec;
  const RunStats st =
      run_with(g.accept, g.delivery, g.seed, prm, p, progs, &rec);
  EXPECT_TRUE(st.completed());
  EXPECT_EQ(hash_stats(st), g.stats);
  EXPECT_EQ(hash_events(rec.events()), g.events);
  return st;
}

TEST(SchedulerEquivalence, GoldenStallingHotspotPerPolicy) {
  // A stalling k-hotspot under every AcceptOrder x DeliverySchedule at
  // three seeds. The pins catch a change to the acceptance and stall
  // bookkeeping (handle_accept) that alters which submission is accepted
  // when, or the order of the StallBegin records. Fifo and Lifo under a
  // deterministic delivery schedule draw no random numbers, so their pins
  // repeat across seeds.
  constexpr Golden kGolden[] = {
      {AcceptOrder::Fifo, DeliverySchedule::Latest, 0,
       0xf0b7f502d6417c15ULL, 0x0abc59a998b2e32dULL},
      {AcceptOrder::Fifo, DeliverySchedule::Earliest, 0,
       0x4b27567a51ac59eaULL, 0xbec7827c573a62f6ULL},
      {AcceptOrder::Fifo, DeliverySchedule::UniformRandom, 0,
       0xcf6c0947e85a7750ULL, 0x5f00b6ad74fec496ULL},
      {AcceptOrder::Lifo, DeliverySchedule::Latest, 0,
       0xc430baacf25d0ca3ULL, 0xcc50daa7a5fadfa7ULL},
      {AcceptOrder::Lifo, DeliverySchedule::Earliest, 0,
       0x6a280766db2ab168ULL, 0x0a6a0d36748b7e8bULL},
      {AcceptOrder::Lifo, DeliverySchedule::UniformRandom, 0,
       0x3135cf765d38ac65ULL, 0x7e147d8e59fc825bULL},
      {AcceptOrder::Random, DeliverySchedule::Latest, 0,
       0x9b8f4982a1d2ed2bULL, 0xb9f61e74891642fdULL},
      {AcceptOrder::Random, DeliverySchedule::Earliest, 0,
       0x8a12b23204e1f24fULL, 0x3fd31c6055875d80ULL},
      {AcceptOrder::Random, DeliverySchedule::UniformRandom, 0,
       0xcf74ba2781e4da57ULL, 0x13e0c20c67be972fULL},
      {AcceptOrder::Fifo, DeliverySchedule::Latest, 1,
       0xf0b7f502d6417c15ULL, 0x0abc59a998b2e32dULL},
      {AcceptOrder::Fifo, DeliverySchedule::Earliest, 1,
       0x4b27567a51ac59eaULL, 0xbec7827c573a62f6ULL},
      {AcceptOrder::Fifo, DeliverySchedule::UniformRandom, 1,
       0xd14c975d78db7571ULL, 0xb1b1bc596b5b9f9bULL},
      {AcceptOrder::Lifo, DeliverySchedule::Latest, 1,
       0xc430baacf25d0ca3ULL, 0xcc50daa7a5fadfa7ULL},
      {AcceptOrder::Lifo, DeliverySchedule::Earliest, 1,
       0x6a280766db2ab168ULL, 0x0a6a0d36748b7e8bULL},
      {AcceptOrder::Lifo, DeliverySchedule::UniformRandom, 1,
       0x6413ecf6b2101a4eULL, 0x4f9dcc019d9333b5ULL},
      {AcceptOrder::Random, DeliverySchedule::Latest, 1,
       0x6e196c145de135caULL, 0xd384e214b491627dULL},
      {AcceptOrder::Random, DeliverySchedule::Earliest, 1,
       0xe42fce73bb9af251ULL, 0x81cffffc100fd276ULL},
      {AcceptOrder::Random, DeliverySchedule::UniformRandom, 1,
       0x99151406b54d9568ULL, 0x12b4e87e16eedeb1ULL},
      {AcceptOrder::Fifo, DeliverySchedule::Latest, 42,
       0xf0b7f502d6417c15ULL, 0x0abc59a998b2e32dULL},
      {AcceptOrder::Fifo, DeliverySchedule::Earliest, 42,
       0x4b27567a51ac59eaULL, 0xbec7827c573a62f6ULL},
      {AcceptOrder::Fifo, DeliverySchedule::UniformRandom, 42,
       0x73ef7dc67263cf7eULL, 0x1ba3d4fc625b3d7eULL},
      {AcceptOrder::Lifo, DeliverySchedule::Latest, 42,
       0xc430baacf25d0ca3ULL, 0xcc50daa7a5fadfa7ULL},
      {AcceptOrder::Lifo, DeliverySchedule::Earliest, 42,
       0x6a280766db2ab168ULL, 0x0a6a0d36748b7e8bULL},
      {AcceptOrder::Lifo, DeliverySchedule::UniformRandom, 42,
       0xef1f60841dd34008ULL, 0x44d79415787cb577ULL},
      {AcceptOrder::Random, DeliverySchedule::Latest, 42,
       0x4ea633764abb2554ULL, 0x3c9e7b2c9eaa5c0bULL},
      {AcceptOrder::Random, DeliverySchedule::Earliest, 42,
       0x151aafd03cf28b04ULL, 0x3afb9c9ef2144877ULL},
      {AcceptOrder::Random, DeliverySchedule::UniformRandom, 42,
       0x95fed4a66d13e1f2ULL, 0x956d71883d3eb4a0ULL},
  };
  const ProcId p = 17;
  const Params prm{16, 1, 4};  // capacity 4 against 16 senders
  const auto progs = workload::hotspot(p, 3);
  for (const Golden& g : kGolden)
    EXPECT_GT(expect_golden(g, prm, p, progs).stall_events, 0);
}

TEST(SchedulerEquivalence, GoldenRandomTrafficPerPolicy) {
  constexpr Golden kGolden[] = {
      {AcceptOrder::Fifo, DeliverySchedule::Latest, 7,
       0x5e57c1834aba4e2dULL, 0xfef552ba9c4dfa52ULL},
      {AcceptOrder::Fifo, DeliverySchedule::Earliest, 7,
       0xd8a91ca14fd6401eULL, 0x44707993d4d49e71ULL},
      {AcceptOrder::Fifo, DeliverySchedule::UniformRandom, 7,
       0x489e58fcd0fc2d9dULL, 0x359834d9ec6ad25dULL},
      {AcceptOrder::Lifo, DeliverySchedule::Latest, 7,
       0x9f1f3dbe4ff444a7ULL, 0xf52e4d5ab17d1180ULL},
      {AcceptOrder::Lifo, DeliverySchedule::Earliest, 7,
       0xd8a91ca14fd6401eULL, 0x4212ab2e450f3a31ULL},
      {AcceptOrder::Lifo, DeliverySchedule::UniformRandom, 7,
       0x489e58fcd0fc2d9dULL, 0xb9e726fbc380092dULL},
      {AcceptOrder::Random, DeliverySchedule::Latest, 7,
       0x9f1f3dbe4ff444a7ULL, 0xf52e4d5ab17d1180ULL},
      {AcceptOrder::Random, DeliverySchedule::Earliest, 7,
       0xd8a91ca14fd6401eULL, 0x4212ab2e450f3a31ULL},
      {AcceptOrder::Random, DeliverySchedule::UniformRandom, 7,
       0xebde6444f7edf40aULL, 0x45e54cc6258c3dd1ULL},
      {AcceptOrder::Fifo, DeliverySchedule::Latest, 99,
       0x4a2831f275a6e01cULL, 0xc647e19df3b1629dULL},
      {AcceptOrder::Fifo, DeliverySchedule::Earliest, 99,
       0x13d60974a2259f7cULL, 0xc8bf7db50047e6e6ULL},
      {AcceptOrder::Fifo, DeliverySchedule::UniformRandom, 99,
       0xfcc9f21e5abe59fcULL, 0xf9660a16a0509d16ULL},
      {AcceptOrder::Lifo, DeliverySchedule::Latest, 99,
       0x09dbd75aaaaac026ULL, 0x10370cc7228a6e8bULL},
      {AcceptOrder::Lifo, DeliverySchedule::Earliest, 99,
       0x13d60974a2259f7cULL, 0x8db785abf4b759a6ULL},
      {AcceptOrder::Lifo, DeliverySchedule::UniformRandom, 99,
       0xfcc9f21e5abe59fcULL, 0xabf8ac265f282f96ULL},
      {AcceptOrder::Random, DeliverySchedule::Latest, 99,
       0x09dbd75aaaaac026ULL, 0x0ef951acf0d2d25bULL},
      {AcceptOrder::Random, DeliverySchedule::Earliest, 99,
       0x13d60974a2259f7cULL, 0x73b150c869877226ULL},
      {AcceptOrder::Random, DeliverySchedule::UniformRandom, 99,
       0xd3c1c3d8923a8446ULL, 0x8f2e4611d3cef3feULL},
  };
  const ProcId p = 12;
  const Params prm{12, 1, 3};
  for (const Golden& g : kGolden)
    expect_golden(g, prm, p, workload::random_traffic(p, 12, 20, g.seed));
}

TEST(SchedulerEquivalence, SparseTimersCrossTheWheelHorizon) {
  // Compute jumps far beyond the 1024-step wheel window force events
  // through the calendar queue's overflow buffer.
  constexpr Golden kGolden[] = {
      {AcceptOrder::Fifo, DeliverySchedule::Latest, 3,
       0xbd14ea769859f18aULL, 0xcf764ea082c28606ULL},
      {AcceptOrder::Fifo, DeliverySchedule::Latest, 11,
       0x1222b6af16589ae3ULL, 0xb5249b74af6afd57ULL},
  };
  const ProcId p = 6;
  const Params prm{8, 1, 2};
  for (const Golden& g : kGolden) {
    const RunStats st = expect_golden(
        g, prm, p, workload::random_traffic(p, 6, 5000, g.seed));
    EXPECT_GT(st.finish_time, 1024);  // the horizon was actually crossed
  }
}

}  // namespace
}  // namespace bsplogp::logp
