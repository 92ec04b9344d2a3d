// Differential testing: every workload-registry family executed natively
// (real threads, src/native) and on the simulators must produce identical
// logical outcomes.
//
// LogP families run three ways — native::run_logp, logp::Machine, and
// xsim::LogpOnBsp (Theorem 1) — and must agree on the per-processor result
// vector; the two machine-level executors must also agree on message
// counts. BSP families run two ways — native::run_bsp and bsp::Machine —
// and must agree on EVERYTHING: the per-processor per-superstep inbox logs
// (workload::logged), which check native's threaded exchange, and the
// entire model accounting and event stream, which check that halting and
// the superstep limit end both runs alike. Both executors price through
// one bsp::SuperstepCore, so a pricing bug would hit both alike; the
// absolute pins in tests/bsp/machine_test.cpp guard the pricing itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/bsp/machine.h"
#include "src/core/parallel.h"
#include "src/logp/machine.h"
#include "src/native/bsp_exec.h"
#include "src/native/logp_exec.h"
#include "src/trace/sink.h"
#include "src/workload/workload.h"
#include "src/xsim/logp_on_bsp.h"

namespace bsplogp {
namespace {

// One warm pool for the whole suite (8 procs max → 7 workers).
core::ThreadPool& shared_pool() {
  static core::ThreadPool pool(7);
  return pool;
}

constexpr logp::Params kLogpParams{16, 1, 4};
constexpr bsp::Params kBspParams{3, 5};

struct LogpOutcome {
  std::vector<Word> result;
  std::int64_t delivered = 0;
  std::int64_t acquired = 0;
};

LogpOutcome run_native_logp(const workload::Entry& entry,
                            workload::Spec spec) {
  LogpOutcome out;
  spec.result = &out.result;
  const auto programs = entry.logp(spec);
  native::NativeLogpOptions options;
  options.pool = &shared_pool();
  const native::NativeLogpStats stats =
      native::run_logp(programs, kLogpParams, options);
  out.delivered = stats.messages_sent;
  out.acquired = stats.messages_acquired;
  return out;
}

LogpOutcome run_sim_logp(const workload::Entry& entry, workload::Spec spec) {
  LogpOutcome out;
  spec.result = &out.result;
  const auto programs = entry.logp(spec);
  logp::Machine machine(static_cast<ProcId>(programs.size()), kLogpParams);
  const logp::RunStats stats = machine.run(programs);
  EXPECT_TRUE(stats.completed()) << entry.name;
  out.delivered = stats.messages;
  out.acquired = stats.messages_acquired;
  return out;
}

LogpOutcome run_xsim_logp(const workload::Entry& entry, workload::Spec spec) {
  LogpOutcome out;
  spec.result = &out.result;
  const auto programs = entry.logp(spec);
  xsim::LogpOnBsp sim(static_cast<ProcId>(programs.size()), kLogpParams,
                      xsim::LogpOnBspOptions{kBspParams});
  const xsim::LogpOnBspReport report = sim.run(programs);
  EXPECT_FALSE(report.stuck) << entry.name;
  return out;
}

workload::Spec differential_spec() {
  workload::Spec spec;
  spec.p = 6;
  spec.k = 2;
  spec.rounds = 3;
  spec.max_jump = 8;
  spec.seed = 7;
  return spec;
}

TEST(NativeDifferential, EveryLogpFamilyMatchesBothSimulators) {
  int families = 0;
  for (const workload::Entry& entry : workload::registry()) {
    if (!entry.logp) continue;
    families += 1;
    SCOPED_TRACE(entry.name);
    const workload::Spec spec = differential_spec();
    const LogpOutcome native = run_native_logp(entry, spec);
    const LogpOutcome sim = run_sim_logp(entry, spec);
    const LogpOutcome onbsp = run_xsim_logp(entry, spec);
    EXPECT_EQ(native.result, sim.result);
    EXPECT_EQ(native.result, onbsp.result);
    EXPECT_EQ(native.delivered, sim.delivered);
    EXPECT_EQ(native.acquired, sim.acquired);
    EXPECT_GT(native.delivered, 0);
  }
  EXPECT_GE(families, 6) << "registry lost LogP families";
}

TEST(NativeDifferential, HotspotMatchesInBothVariants) {
  const workload::Entry* entry = workload::find("hotspot");
  ASSERT_NE(entry, nullptr);
  for (const bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "naive");
    workload::Spec spec = differential_spec();
    spec.k = 3;
    spec.staged = staged;
    const LogpOutcome native = run_native_logp(*entry, spec);
    const LogpOutcome sim = run_sim_logp(*entry, spec);
    EXPECT_EQ(native.result, sim.result);
    EXPECT_EQ(native.delivered, sim.delivered);
    // Closed form: senders 1..p-1 fire payloads i*100 + j, j < k.
    Word expected = 0;
    for (ProcId i = 1; i < spec.p; ++i)
      for (Time j = 0; j < spec.k; ++j) expected += i * 100 + j;
    ASSERT_EQ(native.result.size(), 1u);
    EXPECT_EQ(native.result[0], expected);
  }
}

struct BspOutcome {
  workload::InboxLog log;
  bsp::RunStats model;
  trace::RunInfo info;
  std::vector<trace::Event> events;
  Time trace_finish = 0;
};

BspOutcome run_native_bsp(const workload::Entry& entry,
                          const workload::Spec& spec,
                          std::int64_t max_supersteps = 1'000'000) {
  BspOutcome out;
  trace::RecordingSink sink;
  const auto programs = workload::logged(entry.bsp(spec), out.log);
  native::NativeBspOptions options;
  options.pool = &shared_pool();
  options.sink = &sink;
  options.params = kBspParams;
  options.max_supersteps = max_supersteps;
  out.model = native::run_bsp(programs, options).model;
  out.info = sink.info();
  out.events = sink.events();
  out.trace_finish = sink.finish();
  return out;
}

BspOutcome run_sim_bsp(const workload::Entry& entry,
                       const workload::Spec& spec,
                       std::int64_t max_supersteps = 1'000'000) {
  BspOutcome out;
  trace::RecordingSink sink;
  const auto programs = workload::logged(entry.bsp(spec), out.log);
  bsp::Machine::Options options;
  options.sink = &sink;
  options.max_supersteps = max_supersteps;
  bsp::Machine machine(spec.p, kBspParams, options);
  out.model = machine.run(programs);
  out.info = sink.info();
  out.events = sink.events();
  out.trace_finish = sink.finish();
  return out;
}

void expect_bsp_equal(const BspOutcome& native, const BspOutcome& sim) {
  // Logical outcome: what every processor saw, superstep by superstep.
  EXPECT_EQ(native.log.per_pid, sim.log.per_pid);
  // Model accounting: field for field.
  EXPECT_EQ(native.model.finish_time, sim.model.finish_time);
  EXPECT_EQ(native.model.supersteps, sim.model.supersteps);
  EXPECT_EQ(native.model.messages, sim.model.messages);
  EXPECT_EQ(native.model.proc_finish, sim.model.proc_finish);
  EXPECT_EQ(native.model.blocked_procs, sim.model.blocked_procs);
  EXPECT_EQ(native.model.hit_superstep_limit, sim.model.hit_superstep_limit);
  ASSERT_EQ(native.model.trace.size(), sim.model.trace.size());
  for (std::size_t s = 0; s < sim.model.trace.size(); ++s) {
    EXPECT_EQ(native.model.trace[s].w, sim.model.trace[s].w) << "superstep " << s;
    EXPECT_EQ(native.model.trace[s].h, sim.model.trace[s].h) << "superstep " << s;
  }
  // Even the event stream is identical: one emitter, same order, each
  // under its own executor's name and the run's parameters.
  EXPECT_EQ(native.events, sim.events);
  EXPECT_EQ(native.trace_finish, sim.trace_finish);
  EXPECT_EQ(native.info.machine, "native.bsp");
  EXPECT_EQ(sim.info.machine, "bsp");
  EXPECT_EQ(native.info.nprocs, sim.info.nprocs);
  for (const trace::RunInfo* info : {&native.info, &sim.info}) {
    EXPECT_EQ(info->g, kBspParams.g);
    EXPECT_EQ(info->l, kBspParams.l);
  }
}

TEST(NativeDifferential, EveryBspFamilyMatchesTheMachineExactly) {
  int families = 0;
  for (const workload::Entry& entry : workload::registry()) {
    if (!entry.bsp) continue;
    families += 1;
    SCOPED_TRACE(entry.name);
    workload::Spec spec = differential_spec();
    spec.k = 4;       // relation degree / sort block size
    spec.rounds = 5;  // fuzz supersteps
    expect_bsp_equal(run_native_bsp(entry, spec), run_sim_bsp(entry, spec));
  }
  EXPECT_GE(families, 3) << "registry lost BSP families";
}

TEST(NativeDifferential, UnevenHaltingKeepsExecutorsAligned) {
  // Processors halt in different supersteps; halted ones keep receiving.
  // This exercises proc_finish bookkeeping and the never-re-stepped rule.
  const workload::Spec spec = [] {
    workload::Spec s;
    s.p = 6;
    return s;
  }();
  const auto family = [](const workload::Spec& s) {
    return bsp::make_programs(s.p, [](bsp::Ctx& c) {
      for (ProcId d = 0; d < c.nprocs(); ++d)
        if (d != c.pid()) c.send(d, c.superstep());
      return c.superstep() < c.pid();  // proc i halts after superstep i
    });
  };
  workload::Entry entry{"uneven-halting", "", nullptr, family};
  expect_bsp_equal(run_native_bsp(entry, spec), run_sim_bsp(entry, spec));
}

TEST(NativeDifferential, SuperstepLimitCutsBothExecutorsIdentically) {
  const workload::Spec spec = [] {
    workload::Spec s;
    s.p = 4;
    return s;
  }();
  const auto family = [](const workload::Spec& s) {
    return bsp::make_programs(s.p, [](bsp::Ctx& c) {
      c.send(static_cast<ProcId>((c.pid() + 1) % c.nprocs()), c.superstep());
      return true;  // never halts; the limit must cut the run
    });
  };
  workload::Entry entry{"endless", "", nullptr, family};
  const BspOutcome native = run_native_bsp(entry, spec, 5);
  const BspOutcome sim = run_sim_bsp(entry, spec, 5);
  EXPECT_TRUE(native.model.hit_superstep_limit);
  EXPECT_EQ(native.model.supersteps, 5);
  expect_bsp_equal(native, sim);
}

TEST(NativeDifferential, NativeAcquiredMultisetsMatchSimulatorDeliveries) {
  // Per-processor acquired payload multisets: the native arrival order is
  // real (not simulated), so compare as sorted multisets per processor.
  const ProcId p = 6;
  std::vector<Word> native_sums;
  const auto programs = workload::all_to_all(p, &native_sums);
  std::vector<std::vector<Message>> acquired;
  native::NativeLogpOptions options;
  options.pool = &shared_pool();
  options.acquired = &acquired;
  (void)native::run_logp(programs, kLogpParams, options);
  ASSERT_EQ(acquired.size(), static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i) {
    std::vector<Word> payloads;
    for (const Message& m : acquired[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(m.dst, i);
      payloads.push_back(m.payload);
    }
    std::sort(payloads.begin(), payloads.end());
    // Everyone receives 1..p except its own id+1.
    std::vector<Word> expected;
    for (ProcId s = 0; s < p; ++s)
      if (s != i) expected.push_back(s + 1);
    EXPECT_EQ(payloads, expected);
  }
}

}  // namespace
}  // namespace bsplogp
