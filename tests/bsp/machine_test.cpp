// Execution-semantics tests for the BSP machine: superstep structure,
// message pool lifecycle, halting, inbox ordering, run limits.
#include "src/bsp/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

namespace bsplogp::bsp {
namespace {

TEST(BspMachine, RingShiftDeliversNextSuperstep) {
  const ProcId p = 8;
  std::vector<Word> got(static_cast<std::size_t>(p), -1);
  auto progs = make_programs(p, [&](Ctx& c) {
    if (c.superstep() == 0) {
      c.send((c.pid() + 1) % c.nprocs(), c.pid());
      return true;
    }
    EXPECT_EQ(c.inbox().size(), 1u);
    got[static_cast<std::size_t>(c.pid())] = c.inbox()[0].payload;
    return false;
  });
  Machine m(p, Params{2, 5});
  const RunStats st = m.run(progs);
  EXPECT_EQ(st.supersteps, 2);
  EXPECT_EQ(st.messages, p);
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], (i + p - 1) % p);
}

TEST(BspMachine, MessagesOnlyVisibleInNextSuperstepAndThenDiscarded) {
  const ProcId p = 2;
  std::vector<std::vector<std::size_t>> inbox_sizes(2);
  auto progs = make_programs(p, [&](Ctx& c) {
    inbox_sizes[static_cast<std::size_t>(c.pid())].push_back(
        c.inbox().size());
    if (c.superstep() == 0 && c.pid() == 0) c.send(1, 99);
    return c.superstep() < 2;  // run supersteps 0,1,2
  });
  Machine m(p, Params{1, 1});
  m.run(progs);
  // Proc 1 sees nothing in step 0, one message in step 1, nothing in step 2
  // (previous pool contents are discarded, not accumulated).
  EXPECT_EQ(inbox_sizes[1], (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(inbox_sizes[0], (std::vector<std::size_t>{0, 0, 0}));
}

TEST(BspMachine, SelfSendArrivesNextSuperstep) {
  std::vector<Word> seen;
  auto progs = make_programs(1, [&](Ctx& c) {
    if (c.superstep() == 0) {
      c.send(0, 7);
      return true;
    }
    for (const Message& msg : c.inbox()) seen.push_back(msg.payload);
    return false;
  });
  Machine m(1, Params{1, 1});
  m.run(progs);
  EXPECT_EQ(seen, (std::vector<Word>{7}));
}

TEST(BspMachine, HaltsOnlyWhenAllProcessorsAgree) {
  const ProcId p = 4;
  std::vector<int> steps(static_cast<std::size_t>(p), 0);
  auto progs = make_programs(p, [&](Ctx& c) {
    steps[static_cast<std::size_t>(c.pid())] += 1;
    // Processor i wants to run i+1 supersteps; the machine keeps running
    // until the slowest halts, but a halted processor is never re-stepped.
    return c.superstep() < c.pid();
  });
  Machine m(p, Params{1, 1});
  const RunStats st = m.run(progs);
  EXPECT_EQ(st.supersteps, p);
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(steps[static_cast<std::size_t>(i)], i + 1);
}

TEST(BspMachine, HaltedProcessorCannotResurrect) {
  // Processor 0 halts in superstep 0 but would return true (and emit
  // traffic) on any later step; processor 1 runs three supersteps. The
  // halted program must stay halted: with re-stepping it would resurrect
  // and the machine would never reach the all-halted exit.
  const ProcId p = 2;
  std::vector<int> steps(static_cast<std::size_t>(p), 0);
  std::vector<std::unique_ptr<ProcProgram>> progs;
  progs.push_back(std::make_unique<FnProgram>([&](Ctx& c) {
    steps[0] += 1;
    if (c.superstep() > 0) {
      c.send(1, 99);  // resurrection traffic: must never happen
      return true;
    }
    return false;
  }));
  progs.push_back(std::make_unique<FnProgram>([&](Ctx& c) {
    steps[1] += 1;
    for (const Message& m : c.inbox()) EXPECT_NE(m.payload, 99);
    return c.superstep() < 2;
  }));
  Machine::Options opt;
  opt.max_supersteps = 50;
  Machine m(p, Params{1, 1}, opt);
  const RunStats st = m.run(progs);
  EXPECT_FALSE(st.hit_superstep_limit);
  EXPECT_EQ(st.supersteps, 3);
  EXPECT_EQ(steps[0], 1);
  EXPECT_EQ(steps[1], 3);
  EXPECT_EQ(st.messages, 0);
}

TEST(BspMachine, StaggeredHaltsStepEachProcessorExactlyUntilItsHalt) {
  // Staggered halt times with ongoing traffic: processor i halts after
  // superstep 2*i; messages sent to already-halted processors are still
  // delivered (and charged to h) even though nobody extracts them.
  const ProcId p = 3;
  std::vector<int> steps(static_cast<std::size_t>(p), 0);
  auto progs = make_programs(p, [&](Ctx& c) {
    steps[static_cast<std::size_t>(c.pid())] += 1;
    c.send(static_cast<ProcId>((c.pid() + 1) % c.nprocs()), c.superstep());
    return c.superstep() < 2 * c.pid();
  });
  Machine m(p, Params{1, 1});
  const RunStats st = m.run(progs);
  EXPECT_EQ(st.supersteps, 5);  // proc 2 halts after superstep 4
  EXPECT_EQ(steps[0], 1);
  EXPECT_EQ(steps[1], 3);
  EXPECT_EQ(steps[2], 5);
  EXPECT_EQ(st.messages, 1 + 3 + 5);
  // Priced in absolute terms (g = l = 1): w is one send plus the messages
  // extracted, h = 1 throughout, and each processor finishes at the
  // closing barrier of the superstep in which it halts.
  const std::vector<std::pair<Time, Time>> want = {
      {1, 1}, {2, 1}, {2, 1}, {2, 1}, {1, 1}};
  ASSERT_EQ(st.trace.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(st.trace[s].w, want[s].first) << "superstep " << s;
    EXPECT_EQ(st.trace[s].h, want[s].second) << "superstep " << s;
  }
  EXPECT_EQ(st.proc_finish, (std::vector<Time>{3, 11, 18}));
  EXPECT_EQ(st.finish_time, 18);
  EXPECT_TRUE(st.blocked_procs.empty());
}

TEST(BspMachine, SuperstepLimitStopsRunawayPrograms) {
  auto progs = make_programs(2, [](Ctx&) { return true; });
  Machine::Options opt;
  opt.max_supersteps = 10;
  Machine m(2, Params{1, 1}, opt);
  const RunStats st = m.run(progs);
  EXPECT_TRUE(st.hit_superstep_limit);
  EXPECT_EQ(st.supersteps, 10);
  // Ten empty supersteps pay only the barrier; nobody finished.
  EXPECT_EQ(st.finish_time, 10);
  EXPECT_EQ(st.blocked_procs, (std::vector<ProcId>{0, 1}));
  EXPECT_EQ(st.proc_finish, (std::vector<Time>{0, 0}));
}

TEST(BspMachine, SourceOrderInboxIsSortedBySender) {
  const ProcId p = 6;
  std::vector<Word> order;
  auto progs = make_programs(p, [&](Ctx& c) {
    if (c.superstep() == 0) {
      if (c.pid() != 0) c.send(0, c.pid());
      return true;
    }
    if (c.pid() == 0)
      for (const Message& msg : c.inbox()) order.push_back(msg.payload);
    return false;
  });
  Machine m(p, Params{1, 1});
  m.run(progs);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), static_cast<std::size_t>(p - 1));
}

TEST(BspMachine, ShuffledInboxIsDeterministicPerSeed) {
  const ProcId p = 16;
  auto run_once = [&](std::uint64_t seed) {
    std::vector<Word> order;
    auto progs = make_programs(p, [&](Ctx& c) {
      if (c.superstep() == 0) {
        if (c.pid() != 0) c.send(0, c.pid());
        return true;
      }
      if (c.pid() == 0)
        for (const Message& msg : c.inbox()) order.push_back(msg.payload);
      return false;
    });
    Machine::Options opt;
    opt.inbox_order = InboxOrder::Shuffled;
    opt.shuffle_seed = seed;
    Machine m(p, Params{1, 1}, opt);
    m.run(progs);
    return order;
  };
  const auto a = run_once(1), b = run_once(1), c = run_once(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 15! orderings: collision chance is negligible
  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  std::vector<Word> expect(15);
  std::iota(expect.begin(), expect.end(), 1);
  EXPECT_EQ(sorted, expect);
}

TEST(BspMachine, ProgramsSeeConsistentSuperstepIndex) {
  std::vector<std::int64_t> indices;
  auto progs = make_programs(1, [&](Ctx& c) {
    indices.push_back(c.superstep());
    return c.superstep() < 3;
  });
  Machine m(1, Params{1, 1});
  m.run(progs);
  EXPECT_EQ(indices, (std::vector<std::int64_t>{0, 1, 2, 3}));
}

TEST(BspMachine, ResultsIndependentOfParams) {
  // The defining portability property (Section 2.1): g and l affect cost,
  // never results.
  auto run_with = [&](Params prm) {
    std::vector<Word> sums(4, 0);
    auto progs = make_programs(4, [&](Ctx& c) {
      if (c.superstep() == 0) {
        for (ProcId d = 0; d < c.nprocs(); ++d)
          if (d != c.pid()) c.send(d, c.pid() + 1);
        return true;
      }
      Word s = 0;
      for (const Message& msg : c.inbox()) s += msg.payload;
      sums[static_cast<std::size_t>(c.pid())] = s;
      return false;
    });
    Machine m(4, prm);
    m.run(progs);
    return sums;
  };
  const auto a = run_with(Params{1, 1});
  const auto b = run_with(Params{64, 4096});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], 2 + 3 + 4);
}

}  // namespace
}  // namespace bsplogp::bsp
