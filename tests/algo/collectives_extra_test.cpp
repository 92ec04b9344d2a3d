// Tests for the extended collectives: scatter, gather (staggered and
// stalling variants), forced-arity CB, and the time-reversed optimal
// reduction.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/algo/logp_broadcast_opt.h"
#include "src/algo/logp_collectives.h"
#include "src/algo/mailbox.h"

namespace bsplogp::algo {
namespace {

using logp::Machine;
using logp::Params;
using logp::Proc;
using logp::ProgramFn;
using logp::RunStats;
using logp::Task;

TEST(Scatter, DeliversOneWordPerProcessor) {
  const ProcId p = 12;
  const Params prm{8, 1, 2};
  std::vector<Word> values(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    values[static_cast<std::size_t>(i)] = 10 * i + 1;
  std::vector<Word> got(static_cast<std::size_t>(p), -1);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      got[static_cast<std::size_t>(i)] = co_await scatter(mb, values);
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  EXPECT_TRUE(st.stall_free());
  EXPECT_EQ(got, values);
  // Root pipelines at the gap: finish ~ o + (p-1)G + L + o.
  EXPECT_LE(st.finish_time, prm.o + (p - 1) * prm.G + prm.L + prm.o + prm.G);
}

TEST(Gather, StaggeredGatherIsStallFree) {
  const ProcId p = 16;
  const Params prm{8, 1, 2};  // capacity 4 << p-1 senders
  std::vector<Word> got;
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      auto v = co_await gather(mb, i * i, /*start=*/0);
      if (pr.id() == 0) got = std::move(v);
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  EXPECT_TRUE(st.stall_free());
  ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i * i);
}

TEST(Gather, UnstaggeredGatherStallsButMatches) {
  const ProcId p = 16;
  const Params prm{8, 1, 2};
  std::vector<Word> got;
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      auto v = co_await gather(mb, i + 1);  // no common start: burst
      if (pr.id() == 0) got = std::move(v);
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  EXPECT_GT(st.stall_events, 0);  // the burst exceeds capacity 4
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 1);
}

TEST(CbArity, ForcedAritiesAgreeOnTheResult) {
  const ProcId p = 27;
  const Params prm{16, 1, 2};  // capacity 8
  for (const ProcId arity : {2, 4, 8, 16}) {
    std::vector<Word> out(static_cast<std::size_t>(p), -1);
    std::vector<ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([&, i, arity](Proc& pr) -> Task<> {
        Mailbox mb(pr);
        out[static_cast<std::size_t>(i)] = co_await combine_broadcast_arity(
            mb, i, ReduceOp::Sum, arity);
      });
    Machine m(p, prm);
    const RunStats st = m.run(progs);
    EXPECT_TRUE(st.completed()) << "arity " << arity;
    for (const Word w : out) EXPECT_EQ(w, p * (p - 1) / 2);
    if (arity <= prm.capacity()) {
      EXPECT_TRUE(st.stall_free()) << "arity " << arity;
    }
  }
}

TEST(CbArity, OverwideTreeCanStall) {
  // Fan-in beyond the capacity threshold is exactly what the Stalling Rule
  // punishes — the reason the paper picks arity max{2, ceil(L/G)}.
  const ProcId p = 40;
  const Params prm{8, 1, 4};  // capacity 2
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      (void)co_await combine_broadcast_arity(mb, i, ReduceOp::Max, 13);
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  EXPECT_GT(st.stall_events, 0);
}

TEST(ReduceOpt, MatchesSerialReduction) {
  const Params prm{10, 2, 3};
  for (const ProcId p : {1, 2, 7, 32, 100}) {
    const BroadcastSchedule sched = optimal_broadcast_schedule(p, prm);
    std::vector<Word> roots(static_cast<std::size_t>(p), -1);
    std::vector<ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([&, i](Proc& pr) -> Task<> {
        Mailbox mb(pr);
        roots[static_cast<std::size_t>(i)] =
            co_await reduce_opt(mb, 3 * i + 1, ReduceOp::Sum, sched);
      });
    Machine m(p, prm);
    const RunStats st = m.run(progs);
    EXPECT_TRUE(st.completed()) << "p=" << p;
    EXPECT_TRUE(st.stall_free()) << "p=" << p;
    Word expect = 0;
    for (ProcId i = 0; i < p; ++i) expect += 3 * i + 1;
    EXPECT_EQ(roots[0], expect) << "p=" << p;
  }
}

TEST(ReduceOpt, MakespanMirrorsBroadcast) {
  const ProcId p = 64;
  const Params prm{10, 2, 3};
  const BroadcastSchedule sched = optimal_broadcast_schedule(p, prm);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      (void)co_await reduce_opt(mb, i, ReduceOp::Max, sched);
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  // The reversed schedule runs inside horizon = makespan + 2(L+o).
  EXPECT_LE(st.finish_time, sched.makespan() + 3 * (prm.L + prm.o));
}

TEST(ReduceOpt, BeatsOrMatchesTreeCbAscent) {
  // Sanity ablation: the greedy reversed schedule should not lose badly to
  // the d-ary-tree CB on the same machine (both are O(L log p / ...)).
  const ProcId p = 64;
  const Params prm{10, 2, 3};
  const BroadcastSchedule sched = optimal_broadcast_schedule(p, prm);

  std::vector<ProgramFn> opt_progs, cb_progs;
  for (ProcId i = 0; i < p; ++i) {
    opt_progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      (void)co_await reduce_opt(mb, i, ReduceOp::Sum, sched);
    });
    cb_progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      (void)co_await combine_broadcast(mb, i, ReduceOp::Sum);
    });
  }
  Machine m(p, prm);
  const Time t_opt = m.run(opt_progs).finish_time;
  const Time t_cb = m.run(cb_progs).finish_time;
  EXPECT_LE(t_opt, 2 * t_cb);  // same order; CB also pays the broadcast leg
}

}  // namespace
}  // namespace bsplogp::algo
