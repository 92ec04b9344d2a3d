// Pins the zero-allocation property of the engine's steady state: after a
// warmup run has sized every container (the proc arena, inbox rings,
// pending rings, the event wheel, the payload pool, the coroutine-frame
// recycler), re-running the same workload must touch the global heap
// exactly zero times. Counted by core::AllocCounter via the replacement
// operator new/delete in alloc_hooks.cpp, which this binary links; the
// test skips (loudly) if the hooks are absent rather than pass vacuously.
//
// This is the property behind the throughput claims in
// BENCH_engine_throughput.json — O(1) allocations per run, not O(events)
// — so a regression here is a perf bug even when every behavioural test
// still passes.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/alloc_counter.h"
#include "src/logp/machine.h"
#include "src/logp/proc.h"
#include "src/workload/workload.h"

namespace bsplogp {
namespace {

// Allocations observed across a single run() after warmup.
std::int64_t steady_state_allocs(logp::Machine& m,
                                 const std::vector<logp::ProgramFn>& progs,
                                 int warmup_runs) {
  for (int i = 0; i < warmup_runs; ++i) (void)m.run(progs);
  const auto before = core::AllocCounter::now();
  (void)m.run(progs);
  return core::AllocCounter::since(before).allocs;
}

TEST(MachineAlloc, HotspotSteadyStateIsAllocationFree) {
  if (!core::AllocCounter::installed())
    GTEST_SKIP() << "alloc hooks not linked into this binary";

  // The p = 65536 hotspot from the engine-throughput micro benchmark: the
  // largest machine the bench exercises, with every sender aimed at proc 0
  // so the pending ring and input buffer both see their worst-case growth
  // during warmup.
  constexpr ProcId kProcs = 65536;
  logp::Machine m(kProcs, logp::Params{256, 1, 2});
  const auto progs = workload::hotspot(kProcs, 1);

  // Two warmups: the first sizes every container, the second proves the
  // sizes are stable before we start counting.
  EXPECT_EQ(steady_state_allocs(m, progs, 2), 0);
}

TEST(MachineAlloc, SteadyStateFreeUnderRandomPolicies) {
  if (!core::AllocCounter::installed())
    GTEST_SKIP() << "alloc hooks not linked into this binary";

  // The property is not special to the default policies: the Random
  // policies draw from the machine's own Rng without allocating.
  logp::Machine::Options opt;
  opt.accept_order = logp::AcceptOrder::Random;
  opt.delivery = logp::DeliverySchedule::UniformRandom;
  opt.seed = 7;
  logp::Machine m(256, logp::Params{64, 1, 2}, opt);
  const auto progs = workload::hotspot(256, 4);
  EXPECT_EQ(steady_state_allocs(m, progs, 2), 0);
}

TEST(MachineAlloc, FirstRunAllocationsAreBounded) {
  if (!core::AllocCounter::installed())
    GTEST_SKIP() << "alloc hooks not linked into this binary";

  // Sanity bound on the warmup itself: the first run allocates O(p)
  // container growth (ring doublings, root frames, the payload pool —
  // about 12p on this workload), never O(events). The p = 256, k = 16
  // hotspot processes ~20k events; a per-event allocation regime would
  // blow far past this cap.
  constexpr ProcId kProcs = 256;
  logp::Machine m(kProcs, logp::Params{64, 1, 2});
  const auto progs = workload::hotspot(kProcs, 16);
  const auto before = core::AllocCounter::now();
  (void)m.run(progs);
  const auto delta = core::AllocCounter::since(before);
  EXPECT_LT(delta.allocs, 16 * static_cast<std::int64_t>(kProcs));
}

}  // namespace
}  // namespace bsplogp
