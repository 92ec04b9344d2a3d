// Tests for the LogP collectives of Section 4.1: CB correctness across
// operators, parameters (including the capacity-1 parity-rule regime) and
// join times; stall-freeness; the Proposition-2 time bound; prefix scan;
// tree and optimal broadcast.
#include "src/algo/logp_collectives.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/algo/logp_broadcast_opt.h"
#include "src/algo/mailbox.h"

namespace bsplogp::algo {
namespace {

using logp::Machine;
using logp::Params;
using logp::Proc;
using logp::ProgramFn;
using logp::RunStats;
using logp::Task;

struct CbCase {
  ProcId p;
  Params prm;
};

class CbSweep : public ::testing::TestWithParam<CbCase> {};

RunStats run_cb(ProcId p, Params prm, ReduceOp op,
                std::vector<Word> inputs, std::vector<Word>& outputs,
                bool staggered_join = false) {
  outputs.assign(static_cast<std::size_t>(p), -999);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i, op, staggered_join](Proc& pr) -> Task<> {
      if (staggered_join) co_await pr.compute((i * 37) % 101);
      Mailbox mb(pr);
      outputs[static_cast<std::size_t>(i)] = co_await combine_broadcast(
          mb, inputs[static_cast<std::size_t>(i)], op);
    });
  Machine m(p, prm);
  return m.run(progs);
}

TEST_P(CbSweep, SumIsCorrectAndStallFree) {
  const auto& [p, prm] = GetParam();
  std::vector<Word> in(static_cast<std::size_t>(p));
  Word expect = 0;
  for (ProcId i = 0; i < p; ++i) {
    in[static_cast<std::size_t>(i)] = 3 * i + 1;
    expect += 3 * i + 1;
  }
  std::vector<Word> out;
  const RunStats st = run_cb(p, prm, ReduceOp::Sum, in, out);
  EXPECT_TRUE(st.completed());
  EXPECT_TRUE(st.stall_free()) << "CB must be stall-free by construction";
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], expect) << "proc " << i;
}

TEST_P(CbSweep, CompletesWithinPropositionTwoBound) {
  const auto& [p, prm] = GetParam();
  std::vector<Word> in(static_cast<std::size_t>(p), 1);
  std::vector<Word> out;
  const RunStats st = run_cb(p, prm, ReduceOp::And, in, out);
  EXPECT_TRUE(st.completed());
  EXPECT_LE(st.finish_time, cb_time_bound(prm, p))
      << "p=" << p << " L=" << prm.L << " o=" << prm.o << " G=" << prm.G;
}

TEST_P(CbSweep, CorrectWithStaggeredJoinTimes) {
  const auto& [p, prm] = GetParam();
  std::vector<Word> in(static_cast<std::size_t>(p));
  Word expect = std::numeric_limits<Word>::min();
  for (ProcId i = 0; i < p; ++i) {
    in[static_cast<std::size_t>(i)] = (i * 7919) % 1000;
    expect = std::max(expect, in[static_cast<std::size_t>(i)]);
  }
  std::vector<Word> out;
  const RunStats st =
      run_cb(p, prm, ReduceOp::Max, in, out, /*staggered_join=*/true);
  EXPECT_TRUE(st.completed());
  EXPECT_TRUE(st.stall_free());
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], expect);
}

// gtest prints a CbCase as its raw bytes, and ctest keeps that dump in the
// test name. Cases built on the stack carry stack garbage (ASLR-dependent
// addresses) in the padding after `p`, so the names changed on every run;
// a constant-initialized static array has zeroed padding instead.
constexpr CbCase kCbCases[] = {
    CbCase{1, Params{8, 1, 2}}, CbCase{2, Params{8, 1, 2}},
    CbCase{7, Params{8, 1, 2}}, CbCase{16, Params{8, 1, 2}},
    CbCase{33, Params{8, 1, 2}}, CbCase{128, Params{8, 1, 2}},
    // capacity 1: binary tree + parity slot rule
    CbCase{16, Params{4, 1, 4}}, CbCase{64, Params{4, 2, 4}},
    CbCase{37, Params{3, 1, 2}},
    // large capacity: wide trees
    CbCase{64, Params{32, 1, 2}}, CbCase{256, Params{64, 2, 4}},
    CbCase{100, Params{16, 4, 4}}};

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, CbSweep, ::testing::ValuesIn(kCbCases),
    [](const auto& param_info) {
      const auto& c = param_info.param;
      return "p" + std::to_string(c.p) + "L" + std::to_string(c.prm.L) + "o" +
             std::to_string(c.prm.o) + "G" + std::to_string(c.prm.G);
    });

TEST(Collectives, CbAllOperators) {
  const ProcId p = 9;
  const Params prm{8, 1, 2};
  const std::vector<Word> in{4, 0, 7, 1, 9, 2, 2, 5, 3};
  struct Case {
    ReduceOp op;
    Word expect;
  };
  for (const auto& [op, expect] :
       {Case{ReduceOp::Sum, 33}, Case{ReduceOp::Max, 9},
        Case{ReduceOp::Min, 0}, Case{ReduceOp::And, 0},
        Case{ReduceOp::Or, 1}}) {
    std::vector<Word> out;
    const RunStats st = run_cb(p, prm, op, in, out);
    EXPECT_TRUE(st.completed());
    for (const Word w : out) EXPECT_EQ(w, expect);
  }
}

TEST(Collectives, BarrierHoldsEveryoneUntilLastJoins) {
  const ProcId p = 12;
  const Params prm{8, 1, 2};
  const Time slowest = 500;
  std::vector<Time> release(static_cast<std::size_t>(p), 0);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      co_await pr.compute(i == 5 ? slowest : 5);
      Mailbox mb(pr);
      co_await barrier(mb);
      release[static_cast<std::size_t>(i)] = pr.now();
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  for (ProcId i = 0; i < p; ++i)
    EXPECT_GT(release[static_cast<std::size_t>(i)], slowest) << "proc " << i;
  // And no one is released absurdly late: within the CB bound of the join.
  for (ProcId i = 0; i < p; ++i)
    EXPECT_LE(release[static_cast<std::size_t>(i)],
              slowest + cb_time_bound(prm, p));
}

TEST(Collectives, TreeBroadcastDeliversRootValue) {
  const ProcId p = 40;
  const Params prm{8, 1, 2};
  std::vector<Word> out(static_cast<std::size_t>(p), -1);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      out[static_cast<std::size_t>(i)] =
          co_await tree_broadcast(mb, i == 0 ? 4242 : -7);
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  EXPECT_TRUE(st.stall_free());
  for (const Word w : out) EXPECT_EQ(w, 4242);
}

TEST(Collectives, PrefixScanMatchesSerialScan) {
  for (const ProcId p : {1, 2, 3, 8, 13, 32, 100}) {
    const Params prm{8, 1, 2};
    std::vector<Word> out(static_cast<std::size_t>(p), -1);
    std::vector<ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([&, i](Proc& pr) -> Task<> {
        Mailbox mb(pr);
        out[static_cast<std::size_t>(i)] =
            co_await prefix_scan(mb, 2 * i + 1, ReduceOp::Sum);
      });
    Machine m(p, prm);
    const RunStats st = m.run(progs);
    EXPECT_TRUE(st.completed()) << "p=" << p;
    Word acc = 0;
    for (ProcId i = 0; i < p; ++i) {
      acc += 2 * i + 1;
      EXPECT_EQ(out[static_cast<std::size_t>(i)], acc) << "p=" << p;
    }
  }
}

TEST(Collectives, PrefixScanMaxWorksToo) {
  const ProcId p = 17;
  const Params prm{12, 1, 3};
  const std::vector<Word> in{5, 2, 8, 1, 9, 3, 9, 0, 4,
                             11, 2, 7, 6, 10, 1, 12, 3};
  std::vector<Word> out(static_cast<std::size_t>(p), -1);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      out[static_cast<std::size_t>(i)] = co_await prefix_scan(
          mb, in[static_cast<std::size_t>(i)], ReduceOp::Max);
    });
  Machine m(p, prm);
  EXPECT_TRUE(m.run(progs).completed());
  Word acc = std::numeric_limits<Word>::min();
  for (ProcId i = 0; i < p; ++i) {
    acc = std::max(acc, in[static_cast<std::size_t>(i)]);
    EXPECT_EQ(out[static_cast<std::size_t>(i)], acc);
  }
}

TEST(Collectives, OptimalBroadcastScheduleCoversEveryoneOnce) {
  const Params prm{10, 2, 3};
  for (const ProcId p : {1, 2, 5, 16, 63, 200}) {
    const BroadcastSchedule s = optimal_broadcast_schedule(p, prm);
    std::vector<int> informed(static_cast<std::size_t>(p), 0);
    informed[0] = 1;
    for (ProcId i = 0; i < p; ++i)
      for (const ProcId c : s.children[static_cast<std::size_t>(i)]) {
        informed[static_cast<std::size_t>(c)] += 1;
        // A sender must be informed before its sends matter.
        EXPECT_LT(s.informed_at[static_cast<std::size_t>(i)],
                  s.informed_at[static_cast<std::size_t>(c)]);
      }
    for (const int k : informed) EXPECT_EQ(k, 1);
  }
}

TEST(Collectives, OptimalBroadcastRunsAndBeatsOrMatchesTree) {
  const ProcId p = 64;
  const Params prm{10, 2, 3};
  const BroadcastSchedule sched = optimal_broadcast_schedule(p, prm);

  std::vector<Word> out(static_cast<std::size_t>(p), -1);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      out[static_cast<std::size_t>(i)] =
          co_await broadcast_opt(mb, i == 0 ? 99 : 0, sched);
    });
  Machine m(p, prm);
  const RunStats opt = m.run(progs);
  EXPECT_TRUE(opt.completed());
  EXPECT_TRUE(opt.stall_free());
  for (const Word w : out) EXPECT_EQ(w, 99);

  std::vector<ProgramFn> tree_progs;
  for (ProcId i = 0; i < p; ++i)
    tree_progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      (void)co_await tree_broadcast(mb, i == 0 ? 99 : 0);
    });
  const RunStats tree = m.run(tree_progs);
  EXPECT_LE(opt.finish_time, tree.finish_time);
  // The schedule's worst-case prediction is an upper bound on the engine's
  // Latest-delivery execution (plus the final acquisition overhead).
  EXPECT_LE(opt.finish_time, sched.makespan() + prm.o + prm.G);
}

TEST(Collectives, RepeatedCbInstancesDoNotInterfere) {
  const ProcId p = 10;
  const Params prm{8, 1, 2};
  std::vector<Word> out(static_cast<std::size_t>(p), 0);
  std::vector<ProgramFn> progs;
  for (ProcId i = 0; i < p; ++i)
    progs.emplace_back([&, i](Proc& pr) -> Task<> {
      Mailbox mb(pr);
      Word v = i;
      for (int round = 0; round < 5; ++round)
        v = co_await combine_broadcast(mb, v + 1, ReduceOp::Max);
      out[static_cast<std::size_t>(i)] = v;
    });
  Machine m(p, prm);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.completed());
  // Round 1: max(i+1) = p. Each later round: max(v+1) = previous + 1.
  for (const Word w : out) EXPECT_EQ(w, p + 4);
}

}  // namespace
}  // namespace bsplogp::algo
