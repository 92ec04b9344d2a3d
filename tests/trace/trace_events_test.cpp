// The trace subsystem against the machines that feed it: event streams
// must narrate exactly what the engines did (counts match RunStats, spans
// match the stall accounting) and must never perturb the execution they
// observe.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/bsp/machine.h"
#include "src/logp/machine.h"
#include "src/trace/sink.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"
#include "src/xsim/logp_on_bsp.h"

namespace bsplogp::trace {
namespace {

// Workload throughout: workload::hotspot — p-1 senders overrun processor
// 0's capacity, so the stream contains every LogP event kind (submits,
// stalls, deliveries, acquisitions, gap waits, queue samples).

logp::RunStats run_logp(const std::vector<logp::ProgramFn>& progs, ProcId p,
                        const logp::Params& prm, TraceSink* sink) {
  logp::Machine::Options o;
  o.sink = sink;
  logp::Machine m(p, prm, o);
  return m.run(std::span<const logp::ProgramFn>(progs));
}

TEST(TraceEvents, LogpRunLifecycleAndCountsMatchRunStats) {
  const ProcId p = 9;
  const logp::Params prm{16, 1, 4};
  const auto progs = workload::hotspot(p, 3);
  RecordingSink rec;
  const logp::RunStats st = run_logp(progs, p, prm, &rec);

  EXPECT_EQ(rec.runs(), 1);
  EXPECT_EQ(rec.info().machine, "logp");
  EXPECT_EQ(rec.info().nprocs, p);
  EXPECT_EQ(rec.info().L, prm.L);
  EXPECT_EQ(rec.info().capacity, prm.capacity());
  EXPECT_EQ(rec.finish(), st.finish_time);

  std::int64_t submits = 0, accepts = 0, deliveries = 0, acquires = 0,
               stall_ends = 0;
  Time stall_total = 0;
  for (const Event& e : rec.events()) {
    switch (e.kind) {
      case EventKind::Submit: submits += 1; break;
      case EventKind::Accept:
        accepts += 1;
        EXPECT_GE(e.t, e.t2);  // acceptance at or after submission
        break;
      case EventKind::Delivery: deliveries += 1; break;
      case EventKind::Acquire: acquires += 1; break;
      case EventKind::StallEnd:
        stall_ends += 1;
        EXPECT_GT(e.t, e.t2);  // stall spans are strictly positive
        stall_total += e.t - e.t2;
        break;
      default: break;
    }
  }
  EXPECT_EQ(submits, st.messages_submitted);
  EXPECT_EQ(accepts, st.messages_submitted);  // every message gets accepted
  EXPECT_EQ(deliveries, st.messages);
  EXPECT_EQ(acquires, st.messages_acquired);
  EXPECT_EQ(stall_ends, st.stall_events);
  EXPECT_EQ(stall_total, st.stall_time_total);
  EXPECT_GT(st.stall_events, 0);  // the workload actually stalls
}

TEST(TraceEvents, PerProcessorTimestampsNonDecreasingPerKind) {
  const ProcId p = 9;
  const auto progs = workload::hotspot(p, 2);
  RecordingSink rec;
  run_logp(progs, p, logp::Params{16, 1, 4}, &rec);
  // Per (proc, kind), discovery order is non-decreasing in t — the sink
  // contract documented in sink.h.
  std::map<std::pair<ProcId, EventKind>, Time> last;
  for (const Event& e : rec.events()) {
    auto& prev = last[{e.proc, e.kind}];
    EXPECT_LE(prev, e.t) << "kind " << kind_name(e.kind) << " proc "
                         << e.proc;
    prev = e.t;
  }
}

TEST(TraceEvents, TracingNeverPerturbsTheRun) {
  const ProcId p = 9;
  const logp::Params prm{16, 1, 4};
  const auto progs = workload::hotspot(p, 3);
  RecordingSink rec;
  const logp::RunStats traced = run_logp(progs, p, prm, &rec);
  const logp::RunStats bare = run_logp(progs, p, prm, nullptr);
  EXPECT_TRUE(traced == bare);
}

TEST(TraceEvents, BspSuperstepRecordsCarryTheCostDecomposition) {
  const ProcId p = 4;
  const bsp::Params prm{3, 17};
  auto progs = bsp::make_programs(p, [](bsp::Ctx& c) {
    c.charge(5);
    c.send(static_cast<ProcId>((c.pid() + 1) % c.nprocs()), 1);
    return c.superstep() < 2;
  });
  RecordingSink rec;
  bsp::Machine::Options o;
  o.sink = &rec;
  bsp::Machine m(p, prm, o);
  const bsp::RunStats st = m.run(progs);

  EXPECT_EQ(rec.info().machine, "bsp");
  EXPECT_EQ(rec.info().g, prm.g);
  EXPECT_EQ(rec.info().l, prm.l);
  EXPECT_EQ(rec.finish(), st.finish_time);

  std::vector<Event> begins, ends;
  for (const Event& e : rec.events()) {
    if (e.kind == EventKind::SuperstepBegin) begins.push_back(e);
    if (e.kind == EventKind::SuperstepEnd) ends.push_back(e);
  }
  ASSERT_EQ(static_cast<std::int64_t>(begins.size()), st.supersteps);
  ASSERT_EQ(begins.size(), ends.size());
  ASSERT_EQ(st.trace.size(), ends.size());
  Time cost = 0;
  for (std::size_t s = 0; s < ends.size(); ++s) {
    EXPECT_EQ(begins[s].idx, static_cast<std::int64_t>(s));
    EXPECT_EQ(begins[s].t, cost);       // cumulative cost before
    EXPECT_EQ(ends[s].t2, cost);        // interval start == begin time
    EXPECT_EQ(ends[s].a, st.trace[s].w);
    EXPECT_EQ(ends[s].b, st.trace[s].h);
    cost += st.trace[s].total(prm);
    EXPECT_EQ(ends[s].t, cost);
  }
  EXPECT_EQ(cost, st.finish_time);
}

TEST(TraceEvents, BspOnLogpEmitsBalancedPhaseMarkers) {
  const ProcId p = 4;
  auto progs = bsp::make_programs(p, [p](bsp::Ctx& c) {
    for (ProcId d = 0; d < p; ++d)
      if (d != c.pid()) c.send(d, c.pid());
    return c.superstep() < 1;
  });
  RecordingSink rec;
  xsim::BspOnLogpOptions opt;
  opt.engine.sink = &rec;
  xsim::BspOnLogp sim(p, logp::Params{8, 1, 2}, opt);
  const auto rep = sim.run(progs);
  ASSERT_GT(rep.supersteps, 0);

  // The protocol narrates its phases on top of the engine's message-level
  // events: every processor opens and closes each phase it enters, and a
  // superstep that routes traffic passes through all five.
  std::map<std::pair<ProcId, std::int64_t>, std::int64_t> open;
  std::int64_t seen_phase[kNumSimPhases] = {};
  for (const Event& e : rec.events()) {
    if (e.kind == EventKind::PhaseBegin) {
      open[{e.proc, e.a}] += 1;
      seen_phase[e.a] += 1;
    } else if (e.kind == EventKind::PhaseEnd) {
      const std::int64_t depth = (open[{e.proc, e.a}] -= 1);
      EXPECT_GE(depth, 0);
    }
  }
  for (const auto& [key, depth] : open) EXPECT_EQ(depth, 0);
  for (int ph = 0; ph < kNumSimPhases; ++ph)
    EXPECT_GT(seen_phase[ph], 0)
        << "phase " << phase_name(static_cast<SimPhase>(ph)) << " missing";
  // The engine's own events ride the same stream.
  std::int64_t deliveries = 0;
  for (const Event& e : rec.events())
    if (e.kind == EventKind::Delivery) deliveries += 1;
  EXPECT_EQ(deliveries, rep.logp.messages);
}

TEST(TraceEvents, LogpOnBspReportsSimulatedLogpInteractions) {
  const ProcId p = 4;
  std::vector<logp::ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([p](logp::Proc& pr) -> logp::Task<> {
      co_await pr.send(static_cast<ProcId>((pr.id() + 1) % p), 7);
      (void)co_await pr.recv();
    });
  RecordingSink rec;
  xsim::LogpOnBspOptions opt;
  opt.bsp = bsp::Params{4, 16};
  opt.sink = &rec;
  xsim::LogpOnBsp sim(p, logp::Params{8, 1, 2}, opt);
  const auto rep = sim.run(std::span<const logp::ProgramFn>(progs));
  ASSERT_TRUE(rep.capacity_ok);

  // The host BSP machine owns the run (superstep records); the simulated
  // LogP interactions ride inside it at LogP model times.
  EXPECT_EQ(rec.info().machine, "bsp");
  std::int64_t submits = 0, accepts = 0, deliveries = 0, acquires = 0,
               supersteps = 0;
  for (const Event& e : rec.events()) {
    switch (e.kind) {
      case EventKind::Submit: submits += 1; break;
      case EventKind::Accept: accepts += 1; break;
      case EventKind::Delivery: deliveries += 1; break;
      case EventKind::Acquire: acquires += 1; break;
      case EventKind::SuperstepEnd: supersteps += 1; break;
      default: break;
    }
  }
  EXPECT_EQ(submits, p);  // one send per processor
  EXPECT_EQ(accepts, p);
  EXPECT_EQ(deliveries, p);
  EXPECT_EQ(acquires, p);
  EXPECT_EQ(supersteps, rep.bsp.supersteps);
}

TEST(TraceEvents, TeeSinkFansOutToAllChildren) {
  const ProcId p = 5;
  const auto progs = workload::hotspot(p, 1);
  RecordingSink a, b;
  TeeSink tee({&a, &b});
  run_logp(progs, p, logp::Params{8, 1, 2}, &tee);
  EXPECT_EQ(a.runs(), 1);
  EXPECT_EQ(b.runs(), 1);
  EXPECT_FALSE(a.events().empty());
  EXPECT_TRUE(a.events() == b.events());
}

}  // namespace
}  // namespace bsplogp::trace
