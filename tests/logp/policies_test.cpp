// The two sources of nondeterminism in LogP (Section 2.2) — delivery-time
// choice and acceptance order — are policy options here. These tests check
// that (a) every policy combination respects the model rules, (b) runs are
// reproducible per seed, and (c) a correct program computes the same
// input-output map under all admissible executions we can generate.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/logp/machine.h"
#include "src/workload/workload.h"

namespace bsplogp::logp {
namespace {

struct PolicyCase {
  AcceptOrder accept;
  DeliverySchedule delivery;
  std::uint64_t seed;
};

class AllPolicies : public ::testing::TestWithParam<PolicyCase> {};

// The traffic under test is the registry's all_to_all family: every
// processor sends payload (id + 1) to each other processor, then sums its
// p-1 received payloads, so processor i must end with sum(1..p) - (i + 1).
std::vector<Word> expected_sums(ProcId p) {
  const Word total = static_cast<Word>(p) * (p + 1) / 2;
  std::vector<Word> sums(static_cast<std::size_t>(p), 0);
  for (ProcId i = 0; i < p; ++i)
    sums[static_cast<std::size_t>(i)] = total - (i + 1);
  return sums;
}

TEST_P(AllPolicies, AllToAllComputesSameResultEverywhere) {
  const PolicyCase pc = GetParam();
  const ProcId p = 8;
  const Params prm{12, 1, 3};
  Machine::Options o;
  o.accept_order = pc.accept;
  o.delivery = pc.delivery;
  o.seed = pc.seed;
  Machine m(p, prm, o);
  std::vector<Word> sums;
  const RunStats st = m.run(workload::all_to_all(p, &sums));
  EXPECT_TRUE(st.completed());
  EXPECT_EQ(sums, expected_sums(p));
  EXPECT_LE(st.max_in_transit, prm.capacity());
  EXPECT_EQ(st.messages, p * (p - 1));
  EXPECT_EQ(st.messages_acquired, p * (p - 1));
}

TEST_P(AllPolicies, RunsAreReproduciblePerSeed) {
  const PolicyCase pc = GetParam();
  const ProcId p = 6;
  const Params prm{8, 1, 2};
  Machine::Options o;
  o.accept_order = pc.accept;
  o.delivery = pc.delivery;
  o.seed = pc.seed;
  auto run_once = [&] {
    Machine m(p, prm, o);
    std::vector<Word> sums;
    const RunStats st = m.run(workload::all_to_all(p, &sums));
    return std::pair{st.finish_time, st.stall_events};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    PolicyGrid, AllPolicies,
    ::testing::Values(
        PolicyCase{AcceptOrder::Fifo, DeliverySchedule::Latest, 1},
        PolicyCase{AcceptOrder::Fifo, DeliverySchedule::Earliest, 1},
        PolicyCase{AcceptOrder::Fifo, DeliverySchedule::UniformRandom, 1},
        PolicyCase{AcceptOrder::Lifo, DeliverySchedule::Latest, 1},
        PolicyCase{AcceptOrder::Lifo, DeliverySchedule::Earliest, 1},
        PolicyCase{AcceptOrder::Lifo, DeliverySchedule::UniformRandom, 2},
        PolicyCase{AcceptOrder::Random, DeliverySchedule::Latest, 3},
        PolicyCase{AcceptOrder::Random, DeliverySchedule::Earliest, 4},
        PolicyCase{AcceptOrder::Random, DeliverySchedule::UniformRandom, 5}),
    [](const ::testing::TestParamInfo<PolicyCase>& param_info) {
      const auto& pc = param_info.param;
      std::string name;
      switch (pc.accept) {
        case AcceptOrder::Fifo: name += "Fifo"; break;
        case AcceptOrder::Lifo: name += "Lifo"; break;
        case AcceptOrder::Random: name += "RandAcc"; break;
      }
      switch (pc.delivery) {
        case DeliverySchedule::Latest: name += "Latest"; break;
        case DeliverySchedule::Earliest: name += "Earliest"; break;
        case DeliverySchedule::UniformRandom: name += "RandDel"; break;
      }
      return name + "Seed" + std::to_string(pc.seed);
    });

TEST(LogpPolicies, LatestDeliveryIsWorstCaseForLatency) {
  const Params prm{32, 1, 4};
  auto finish_with = [&](DeliverySchedule d) {
    Machine::Options o;
    o.delivery = d;
    Machine m(2, prm, o);
    std::vector<ProgramFn> progs;
    progs.emplace_back([](Proc& p) -> Task<> { co_await p.send(1, 0); });
    progs.emplace_back([](Proc& p) -> Task<> { (void)co_await p.recv(); });
    return m.run(progs).finish_time;
  };
  const Time latest = finish_with(DeliverySchedule::Latest);
  const Time earliest = finish_with(DeliverySchedule::Earliest);
  Machine::Options o;
  o.delivery = DeliverySchedule::UniformRandom;
  EXPECT_GT(latest, earliest);
  EXPECT_EQ(latest - earliest, prm.L - 1);
}

TEST(LogpPolicies, RandomDeliveryStaysWithinWindow) {
  const Params prm{16, 1, 2};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Machine::Options o;
    o.delivery = DeliverySchedule::UniformRandom;
    o.seed = seed;
    Machine m(2, prm, o);
    std::vector<ProgramFn> progs;
    Time send_done = 0;
    progs.emplace_back([&](Proc& p) -> Task<> {
      co_await p.send(1, 0);
      send_done = p.now();
    });
    Time recv_done = 0;
    progs.emplace_back([&](Proc& p) -> Task<> {
      (void)co_await p.recv();
      recv_done = p.now();
    });
    const RunStats st = m.run(progs);
    EXPECT_TRUE(st.completed());
    // Delivery within (accept, accept+L]; acquisition adds o.
    EXPECT_GE(recv_done, send_done + 1 + prm.o);
    EXPECT_LE(recv_done, send_done + prm.L + prm.o);
  }
}

TEST(LogpPolicies, AcceptOrderChangesWhoStallsNotHowMany) {
  const Params prm{4, 1, 2};  // capacity 2
  const ProcId p = 8;
  auto stalls_with = [&](AcceptOrder ao, std::uint64_t seed) {
    Machine::Options o;
    o.accept_order = ao;
    o.seed = seed;
    Machine m(p, prm, o);
    std::vector<ProgramFn> progs;
    progs.emplace_back([p](Proc& pr) -> Task<> {
      for (ProcId i = 1; i < p; ++i) (void)co_await pr.recv();
    });
    for (ProcId i = 1; i < p; ++i)
      progs.emplace_back(
          [](Proc& pr) -> Task<> { co_await pr.send(0, 0); });
    return m.run(progs).stall_events;
  };
  const auto expected = (p - 1) - prm.capacity();
  EXPECT_EQ(stalls_with(AcceptOrder::Fifo, 0), expected);
  EXPECT_EQ(stalls_with(AcceptOrder::Lifo, 0), expected);
  EXPECT_EQ(stalls_with(AcceptOrder::Random, 7), expected);
}

}  // namespace
}  // namespace bsplogp::logp
