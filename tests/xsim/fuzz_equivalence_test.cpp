// Randomized differential testing of Theorem 2's simulation: arbitrary
// multi-superstep BSP programs with irregular traffic (including empty
// supersteps, self-sends, hot spots) must deliver, on the LogP machine,
// exactly the per-superstep message multisets the native BSP machine
// delivers — under every engine policy.
//
// The fuzz program family lives in the workload registry
// (workload::fuzz_supersteps); its behavior depends only on (seed, pid,
// superstep). The (p, seed) grid runs on a core::ThreadPool — each point
// owns its machines and logs, results land in index-addressed slots, and
// all gtest assertions happen serially afterwards (gtest assertions are
// not thread-safe).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/bsp/machine.h"
#include "src/core/parallel.h"
#include "src/routing/h_relation.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"

namespace bsplogp::xsim {
namespace {

TEST(FuzzEquivalence, NativeAndSimulatedReceiveIdenticalMultisets) {
  struct Point {
    ProcId p;
    std::uint64_t seed;
  };
  std::vector<Point> grid;
  for (const ProcId p : {2, 3, 8, 16})
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u})
      grid.push_back(Point{p, seed});

  const std::int64_t supersteps = 4;
  struct Result {
    workload::FuzzLog native;
    workload::FuzzLog sim;
    bool native_hit_limit = true;
    bool sim_completed = false;
    bool sim_stall_free = false;
    std::int64_t schedule_violations = -1;
  };
  std::vector<Result> results(grid.size());
  core::ThreadPool pool(core::hardware_jobs() - 1);
  pool.for_ranges(grid.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const auto [p, seed] = grid[i];
      Result& r = results[i];
      auto native_progs =
          workload::fuzz_supersteps(p, supersteps, seed, r.native);
      bsp::Machine native(p, bsp::Params{1, 1});
      r.native_hit_limit = native.run(native_progs).hit_superstep_limit;

      auto sim_progs = workload::fuzz_supersteps(p, supersteps, seed, r.sim);
      BspOnLogp sim(p, logp::Params{16, 1, 2});
      const auto rep = sim.run(sim_progs);
      r.sim_completed = rep.logp.completed();
      r.sim_stall_free = rep.logp.stall_free();
      r.schedule_violations = rep.schedule_violations;
    }
  });

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto [p, seed] = grid[i];
    const Result& r = results[i];
    ASSERT_FALSE(r.native_hit_limit) << "p=" << p << " seed=" << seed;
    EXPECT_TRUE(r.sim_completed) << "p=" << p << " seed=" << seed;
    EXPECT_TRUE(r.sim_stall_free) << "p=" << p << " seed=" << seed;
    EXPECT_EQ(r.schedule_violations, 0) << "p=" << p << " seed=" << seed;
    ASSERT_EQ(r.sim.received.size(), r.native.received.size());
    for (std::size_t s = 0; s < r.native.received.size(); ++s)
      for (ProcId pid = 0; pid < p; ++pid)
        EXPECT_EQ(r.sim.received[s][static_cast<std::size_t>(pid)],
                  r.native.received[s][static_cast<std::size_t>(pid)])
            << "superstep " << s << " proc " << pid << " seed " << seed;
  }
}

TEST(FuzzEquivalence, PolicySweepOnOneSeed) {
  // Every engine policy under both sort methods. UniformRandom delivery
  // reorders a merge-split partner's run in transit; the duplicate
  // relation (one sender repeating a message verbatim, so its records tie
  // in every field) pins how the sorts handle ties.
  const ProcId p = 8;
  const std::int64_t supersteps = 3;
  const std::uint64_t seed = 99;

  workload::FuzzLog reference;
  auto ref_progs = workload::fuzz_supersteps(p, supersteps, seed, reference);
  bsp::Machine native(p, bsp::Params{1, 1});
  (void)native.run(ref_progs);

  routing::HRelation dups(p);
  for (int k = 0; k < 5; ++k) dups.add(3, 6, 42, 1);
  dups.add(3, 6, 41, 1);
  dups.add(2, 6, 42, 1);
  dups.add(5, 3, 42, 1);
  dups.add(5, 3, 42, 1);
  workload::InboxLog dup_reference;
  auto dup_ref_progs =
      workload::logged(workload::relation_step(dups), dup_reference);
  (void)bsp::Machine(p, bsp::Params{1, 1}).run(dup_ref_progs);

  for (const auto method : {SortMethod::Bitonic, SortMethod::Columnsort})
    for (const auto accept :
         {logp::AcceptOrder::Fifo, logp::AcceptOrder::Lifo,
          logp::AcceptOrder::Random})
      for (const auto delivery :
           {logp::DeliverySchedule::Latest, logp::DeliverySchedule::Earliest,
            logp::DeliverySchedule::UniformRandom}) {
        BspOnLogpOptions opt;
        opt.sort = method;
        opt.engine.accept_order = accept;
        opt.engine.delivery = delivery;
        opt.engine.seed = 7;
        BspOnLogp sim(p, logp::Params{12, 1, 3}, opt);

        workload::FuzzLog log;
        auto progs = workload::fuzz_supersteps(p, supersteps, seed, log);
        const auto rep = sim.run(progs);
        EXPECT_TRUE(rep.logp.completed());
        EXPECT_EQ(rep.schedule_violations, 0);
        EXPECT_EQ(log.received, reference.received)
            << "method=" << static_cast<int>(method)
            << " accept=" << static_cast<int>(accept)
            << " delivery=" << static_cast<int>(delivery);

        workload::InboxLog dup_log;
        auto dup_progs =
            workload::logged(workload::relation_step(dups), dup_log);
        EXPECT_TRUE(sim.run(dup_progs).logp.completed());
        EXPECT_EQ(dup_log.per_pid, dup_reference.per_pid)
            << "method=" << static_cast<int>(method)
            << " accept=" << static_cast<int>(accept)
            << " delivery=" << static_cast<int>(delivery);
      }
}

}  // namespace
}  // namespace bsplogp::xsim
