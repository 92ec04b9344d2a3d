// Theorem-2 simulation tests: BSP programs must produce identical outputs
// on the native BSP machine and under the LogP superstep simulation, and
// the protocol must run stall-free with clean windows.
#include "src/xsim/bsp_on_logp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/algo/bsp_algorithms.h"
#include "src/core/rng.h"

namespace bsplogp::xsim {
namespace {

using algo::BspPrograms;
using algo::ReduceOp;

void expect_clean(const BspOnLogpReport& rep) {
  EXPECT_TRUE(rep.logp.completed());
  EXPECT_TRUE(rep.logp.stall_free())
      << "Theorem 2's protocol must not stall (stalls: "
      << rep.logp.stall_events << ")";
  EXPECT_EQ(rep.schedule_violations, 0);
}

TEST(BspOnLogp, PrefixScanMatchesNativeBsp) {
  // Non-power-of-two p exercises the Columnsort path end to end.
  for (const ProcId p : {2, 3, 4, 5, 6, 7, 8, 16}) {
    const logp::Params prm{8, 1, 2};
    std::vector<Word> in(static_cast<std::size_t>(p));
    for (ProcId i = 0; i < p; ++i)
      in[static_cast<std::size_t>(i)] = (i * 17) % 23 - 5;

    std::vector<Word> native_out;
    auto native_progs = algo::bsp_prefix_scan(p, in, ReduceOp::Sum,
                                              native_out);
    bsp::Machine native(p, bsp::Params{1, 1});
    (void)native.run(native_progs);

    std::vector<Word> sim_out;
    auto sim_progs = algo::bsp_prefix_scan(p, in, ReduceOp::Sum, sim_out);
    BspOnLogp sim(p, prm);
    const BspOnLogpReport rep = sim.run(sim_progs);

    expect_clean(rep);
    EXPECT_EQ(sim_out, native_out) << "p=" << p;
  }
}

TEST(BspOnLogp, BroadcastRecordsExpectedDegrees) {
  const ProcId p = 8;
  const logp::Params prm{8, 1, 2};
  std::vector<Word> out(static_cast<std::size_t>(p), 0);
  auto progs = bsp::make_programs(p, [&out, p](bsp::Ctx& c) {
    if (c.superstep() == 0) {
      if (c.pid() == 0)
        for (ProcId d = 1; d < p; ++d) c.send(d, 55);
      return true;
    }
    if (c.pid() != 0)
      out[static_cast<std::size_t>(c.pid())] = c.inbox()[0].payload;
    return false;
  });
  BspOnLogp sim(p, prm);
  const BspOnLogpReport rep = sim.run(progs);
  expect_clean(rep);
  for (ProcId i = 1; i < p; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], 55);
  // Superstep 0 routes the (p-1)-relation: r = p-1 sends from the root,
  // every receiver gets exactly 1, so s = 1 and h = p-1.
  ASSERT_GE(rep.steps.size(), 1u);
  EXPECT_EQ(rep.steps[0].r, p - 1);
  EXPECT_EQ(rep.steps[0].s, 1);
  EXPECT_EQ(rep.steps[0].h, p - 1);
}

TEST(BspOnLogp, FanInRecordsExactReceiveDegree) {
  // Everyone sends 2 messages to proc 0: r = 2 but s = 2(p-1) — the
  // distributed max-group-length computation must find the cross-processor
  // run exactly.
  const ProcId p = 8;
  const logp::Params prm{8, 1, 2};
  std::vector<int> got(1, 0);
  auto progs = bsp::make_programs(p, [&](bsp::Ctx& c) {
    if (c.superstep() == 0) {
      if (c.pid() != 0) {
        c.send(0, 1);
        c.send(0, 2);
      }
      return true;
    }
    if (c.pid() == 0) got[0] = static_cast<int>(c.inbox().size());
    return false;
  });
  BspOnLogp sim(p, prm);
  const BspOnLogpReport rep = sim.run(progs);
  expect_clean(rep);
  EXPECT_EQ(got[0], 2 * (p - 1));
  ASSERT_GE(rep.steps.size(), 1u);
  EXPECT_EQ(rep.steps[0].s, 2 * (p - 1));
  EXPECT_EQ(rep.steps[0].h, 2 * (p - 1));
}

TEST(BspOnLogp, OddEvenSortMatchesNativeBsp) {
  core::Rng rng(77);
  const ProcId p = 8;
  const std::size_t b = 8;
  const logp::Params prm{8, 1, 2};
  std::vector<std::vector<Word>> blocks(static_cast<std::size_t>(p));
  for (auto& blk : blocks)
    for (std::size_t j = 0; j < b; ++j)
      blk.push_back(rng.uniform(-500, 500));

  std::vector<std::vector<Word>> native_out;
  auto native_progs = algo::bsp_odd_even_sort(p, blocks, native_out);
  bsp::Machine native(p, bsp::Params{1, 1});
  (void)native.run(native_progs);

  std::vector<std::vector<Word>> sim_out;
  auto sim_progs = algo::bsp_odd_even_sort(p, blocks, sim_out);
  BspOnLogp sim(p, prm);
  const BspOnLogpReport rep = sim.run(sim_progs);

  expect_clean(rep);
  EXPECT_EQ(sim_out, native_out);
}

TEST(BspOnLogp, ForcedColumnsortMatchesForcedBitonic) {
  const ProcId p = 4;
  const logp::Params prm{8, 1, 2};
  core::Rng rng(5);
  std::vector<std::vector<Word>> blocks(static_cast<std::size_t>(p));
  for (auto& blk : blocks)
    for (int j = 0; j < 20; ++j) blk.push_back(rng.uniform(0, 99));

  auto run_with = [&](SortMethod method) {
    std::vector<std::vector<Word>> out;
    auto progs = algo::bsp_odd_even_sort(p, blocks, out);
    BspOnLogpOptions opt;
    opt.sort = method;
    BspOnLogp sim(p, prm, opt);
    const BspOnLogpReport rep = sim.run(progs);
    expect_clean(rep);
    return out;
  };
  const auto a = run_with(SortMethod::Bitonic);
  const auto c = run_with(SortMethod::Columnsort);
  EXPECT_EQ(a, c);
}

TEST(BspOnLogp, LopsidedRadixRoundsRunStallFree) {
  // Section 6's remark: the irregular relations of a radix sort can violate
  // the capacity constraint. Two LSD base-p rounds route every key to the
  // processor named by its current digit; with keys in [0, 2p) the second
  // round sends all of them to processors 0 and 1, so its receive degree
  // far exceeds ceil(L/G). Theorem 2's protocol must still run stall-free.
  const ProcId p = 8;
  const logp::Params prm{8, 1, 2};  // capacity 4
  core::Rng rng(47);
  std::vector<std::vector<Word>> keys(static_cast<std::size_t>(p));
  std::vector<Word> all;
  for (auto& mine : keys)
    for (int j = 0; j < 10; ++j) {
      mine.push_back(rng.uniform(0, 2 * p - 1));
      all.push_back(mine.back());
    }
  std::sort(all.begin(), all.end());

  auto progs = bsp::make_programs(p, [&keys, p](bsp::Ctx& c) {
    auto& mine = keys[static_cast<std::size_t>(c.pid())];
    if (c.superstep() > 0) {
      // Collect the previous round stably: order by (sender, index).
      std::vector<Message> in(c.inbox().begin(), c.inbox().end());
      std::sort(in.begin(), in.end(), [](const Message& a, const Message& b) {
        return std::tie(a.src, a.tag) < std::tie(b.src, b.tag);
      });
      c.charge(static_cast<Time>(in.size()));
      mine.clear();
      for (const Message& m : in) mine.push_back(m.payload);
    }
    if (c.superstep() == 2) return false;
    const Word divisor = c.superstep() == 0 ? 1 : p;
    for (std::size_t j = 0; j < mine.size(); ++j)
      c.send(static_cast<ProcId>(mine[j] / divisor % p), mine[j],
             static_cast<std::int32_t>(j));
    return true;
  });
  BspOnLogp sim(p, prm);
  const BspOnLogpReport rep = sim.run(progs);
  expect_clean(rep);
  std::vector<Word> got;
  for (const auto& mine : keys)
    got.insert(got.end(), mine.begin(), mine.end());
  EXPECT_EQ(got, all);
  EXPECT_TRUE(std::any_of(rep.steps.begin(), rep.steps.end(),
                          [&](const BspOnLogpReport::SuperstepInfo& st) {
                            return st.s > prm.capacity();
                          }));
}

TEST(BspOnLogp, ResultsStableAcrossEnginePolicies) {
  const ProcId p = 8;
  const logp::Params prm{8, 1, 2};
  std::vector<Word> in(static_cast<std::size_t>(p), 3);
  auto run_with = [&](logp::DeliverySchedule d, std::uint64_t seed) {
    std::vector<Word> out;
    auto progs = algo::bsp_prefix_scan(p, in, ReduceOp::Sum, out);
    BspOnLogpOptions opt;
    opt.engine.delivery = d;
    opt.engine.seed = seed;
    BspOnLogp sim(p, prm, opt);
    const BspOnLogpReport rep = sim.run(progs);
    EXPECT_TRUE(rep.logp.completed());
    EXPECT_TRUE(rep.logp.stall_free());
    return out;
  };
  const auto a = run_with(logp::DeliverySchedule::Latest, 0);
  const auto b = run_with(logp::DeliverySchedule::Earliest, 0);
  const auto c = run_with(logp::DeliverySchedule::UniformRandom, 11);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(BspOnLogp, LargerCapacityParamsStayClean) {
  const ProcId p = 16;
  const logp::Params prm{32, 2, 4};  // capacity 8
  std::vector<Word> in(static_cast<std::size_t>(p), 1);
  std::vector<Word> out;
  auto progs = algo::bsp_prefix_scan(p, in, ReduceOp::Sum, out);
  BspOnLogp sim(p, prm);
  const BspOnLogpReport rep = sim.run(progs);
  expect_clean(rep);
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i + 1);
}

TEST(BspOnLogp, CapacityOneParamsStayCorrect) {
  // ceil(L/G) = 1: binary CB tree with the parity rule, tight capacity
  // everywhere. Correctness must hold; stall-freeness of every phase is
  // also expected from the global clocking.
  const ProcId p = 4;
  const logp::Params prm{4, 1, 4};
  std::vector<Word> in{5, 1, 4, 2};
  std::vector<Word> out;
  auto progs = algo::bsp_prefix_scan(p, in, ReduceOp::Max, out);
  BspOnLogp sim(p, prm);
  const BspOnLogpReport rep = sim.run(progs);
  EXPECT_TRUE(rep.logp.completed());
  EXPECT_EQ(out, (std::vector<Word>{5, 5, 5, 5}));
}

TEST(BspOnLogp, UnclockedCyclesStallButStayCorrect) {
  // Ablation: without the global cycle clock the routed relation collides
  // at its destinations — the Stalling Rule absorbs it (results intact),
  // but the stall-free guarantee is gone. This is what the paper's
  // pipelined-cycles decomposition buys.
  const ProcId p = 8;
  const logp::Params prm{8, 1, 2};  // capacity 4
  auto make = [&](std::vector<int>& got) {
    return bsp::make_programs(p, [&got](bsp::Ctx& c) {
      if (c.superstep() == 0) {
        if (c.pid() != 0)
          for (int k = 0; k < 4; ++k) c.send(0, c.pid() * 10 + k);
        return true;
      }
      if (c.pid() == 0) got[0] = static_cast<int>(c.inbox().size());
      return false;
    });
  };
  std::vector<int> clocked_got(1, 0), unclocked_got(1, 0);

  auto clocked_progs = make(clocked_got);
  BspOnLogp clocked(p, prm);
  const auto rep_c = clocked.run(clocked_progs);
  EXPECT_TRUE(rep_c.logp.stall_free());

  auto unclocked_progs = make(unclocked_got);
  BspOnLogpOptions opt;
  opt.clocked_cycles = false;
  BspOnLogp unclocked(p, prm, opt);
  const auto rep_u = unclocked.run(unclocked_progs);
  EXPECT_TRUE(rep_u.logp.completed());
  EXPECT_GT(rep_u.logp.stall_events, 0);  // 28 messages to one dest, cap 4
  EXPECT_EQ(unclocked_got[0], clocked_got[0]);
  EXPECT_EQ(unclocked_got[0], 4 * (p - 1));
}

TEST(BspOnLogp, ReferenceTimeAndSlowdownArePositive) {
  const ProcId p = 8;
  const logp::Params prm{8, 1, 2};
  std::vector<Word> in(static_cast<std::size_t>(p), 7);
  std::vector<Word> out;
  auto progs = algo::bsp_prefix_scan(p, in, ReduceOp::Sum, out);
  BspOnLogp sim(p, prm);
  const BspOnLogpReport rep = sim.run(progs);
  EXPECT_GT(rep.bsp_reference_time(bsp::Params{prm.G, prm.L}), 0);
  EXPECT_GT(rep.slowdown(prm), 1.0);  // simulation cannot beat native BSP
}

}  // namespace
}  // namespace bsplogp::xsim
