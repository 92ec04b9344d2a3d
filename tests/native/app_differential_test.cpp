// Differential + oracle coverage for the partitioned application families
// (src/workload/apps.h). Each family runs SIX ways — LogP programs on
// native::run_logp, logp::Machine, and xsim::LogpOnBsp; BSP programs on
// native::run_bsp, bsp::Machine, and xsim::BspOnLogp — and every executor
// must reproduce the serial oracle's per-processor result vector exactly.
// This is the full executor matrix the registry-driven differential test
// doesn't reach (it has no oracle and never runs BSP programs through
// Theorem 2's sort-and-route).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/bsp/machine.h"
#include "src/core/parallel.h"
#include "src/logp/machine.h"
#include "src/native/bsp_exec.h"
#include "src/native/logp_exec.h"
#include "src/workload/apps.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"
#include "src/xsim/logp_on_bsp.h"

namespace bsplogp {
namespace {

core::ThreadPool& shared_pool() {
  static core::ThreadPool pool(7);
  return pool;
}

constexpr logp::Params kLogpParams{16, 1, 4};
constexpr bsp::Params kBspParams{3, 5};

struct Family {
  const char* name;
  std::vector<logp::ProgramFn> (*logp)(const workload::Spec&);
  std::vector<std::unique_ptr<bsp::ProcProgram>> (*bsp)(
      const workload::Spec&);
  std::vector<Word> (*expected)(const workload::Spec&);
};

constexpr Family kFamilies[] = {
    {"stencil-2d", workload::stencil2d_logp, workload::stencil2d_bsp,
     workload::stencil2d_expected},
    {"sample-sort", workload::samplesort_logp, workload::samplesort_bsp,
     workload::samplesort_expected},
    {"bsf-iterative", workload::bsf_logp, workload::bsf_bsp,
     workload::bsf_expected},
};

void check_all_executors(const Family& fam, workload::Spec spec) {
  const std::vector<Word> oracle = fam.expected(spec);
  ASSERT_EQ(oracle.size(), static_cast<std::size_t>(spec.p));

  std::vector<Word> result;
  spec.result = &result;
  {
    const auto programs = fam.logp(spec);
    native::NativeLogpOptions options;
    options.pool = &shared_pool();
    (void)native::run_logp(programs, kLogpParams, options);
    EXPECT_EQ(result, oracle) << "native logp";
  }
  {
    const auto programs = fam.logp(spec);
    logp::Machine machine(spec.p, kLogpParams);
    EXPECT_TRUE(machine.run(programs).completed());
    EXPECT_EQ(result, oracle) << "logp machine";
  }
  {
    const auto programs = fam.logp(spec);
    xsim::LogpOnBsp sim(spec.p, kLogpParams,
                        xsim::LogpOnBspOptions{kBspParams});
    EXPECT_FALSE(sim.run(programs).stuck);
    EXPECT_EQ(result, oracle) << "logp on bsp";
  }
  {
    const auto programs = fam.bsp(spec);
    native::NativeBspOptions options;
    options.pool = &shared_pool();
    options.params = kBspParams;
    (void)native::run_bsp(programs, options);
    EXPECT_EQ(result, oracle) << "native bsp";
  }
  {
    const auto programs = fam.bsp(spec);
    bsp::Machine machine(spec.p, kBspParams);
    (void)machine.run(programs);
    EXPECT_EQ(result, oracle) << "bsp machine";
  }
  {
    const auto programs = fam.bsp(spec);
    xsim::BspOnLogp sim(spec.p, kLogpParams);
    const xsim::BspOnLogpReport report = sim.run(programs);
    EXPECT_TRUE(report.logp.completed());
    EXPECT_EQ(report.schedule_violations, 0);
    EXPECT_EQ(result, oracle) << "bsp on logp";
  }
}

workload::Spec app_spec(ProcId p, std::int64_t nx, std::int64_t ny,
                        int rounds, ProcId grid_rows = 0) {
  workload::Spec spec;
  spec.p = p;
  spec.nx = nx;
  spec.ny = ny;
  spec.rounds = rounds;
  spec.grid_rows = grid_rows;
  spec.seed = 21;
  return spec;
}

TEST(AppDifferential, StencilMatchesOracleOnEveryExecutor) {
  for (const auto& spec :
       {app_spec(4, 10, 7, 3), app_spec(6, 9, 11, 2, 2),
        app_spec(5, 3, 2, 2),  // more procs than rows: empty partitions
        app_spec(1, 5, 4, 2), app_spec(8, 16, 16, 1, 8)}) {
    SCOPED_TRACE(testing::Message() << "p=" << spec.p << " nx=" << spec.nx
                                    << " ny=" << spec.ny
                                    << " rows=" << spec.grid_rows);
    check_all_executors(kFamilies[0], spec);
  }
}

TEST(AppDifferential, SampleSortMatchesOracleOnEveryExecutor) {
  for (const auto& spec : {app_spec(4, 40, 1, 1), app_spec(6, 96, 1, 1),
                           app_spec(1, 8, 1, 1), app_spec(8, 32, 1, 1)}) {
    SCOPED_TRACE(testing::Message() << "p=" << spec.p << " nx=" << spec.nx);
    check_all_executors(kFamilies[1], spec);
  }
}

TEST(AppDifferential, BsfMatchesOracleOnEveryExecutor) {
  for (const auto& spec :
       {app_spec(4, 23, 1, 4), app_spec(6, 40, 1, 3),
        app_spec(5, 3, 1, 3),  // workers with zero elements
        app_spec(1, 5, 1, 4)}) {
    SCOPED_TRACE(testing::Message() << "p=" << spec.p << " nx=" << spec.nx
                                    << " rounds=" << spec.rounds);
    check_all_executors(kFamilies[2], spec);
  }
}

TEST(AppDifferential, NativeRunsAreDeterministic) {
  // Real-thread arrival order varies run to run; results must not.
  for (const Family& fam : kFamilies) {
    SCOPED_TRACE(fam.name);
    workload::Spec spec = app_spec(6, 30, 5, 3);
    std::vector<Word> first, second;
    for (std::vector<Word>* result : {&first, &second}) {
      spec.result = result;
      const auto programs = fam.logp(spec);
      native::NativeLogpOptions options;
      options.pool = &shared_pool();
      (void)native::run_logp(programs, kLogpParams, options);
    }
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, fam.expected(spec));
  }
}

TEST(AppDifferential, RegistryEntriesRouteToTheAppFactories) {
  // The registry is how benches reach these families; a misrouted entry
  // would silently benchmark the wrong program.
  for (const Family& fam : kFamilies) {
    const workload::Entry* entry = workload::find(fam.name);
    ASSERT_NE(entry, nullptr) << fam.name;
    workload::Spec spec = app_spec(4, 20, 6, 2);
    std::vector<Word> via_entry, via_factory;
    spec.result = &via_entry;
    {
      const auto programs = entry->bsp(spec);
      bsp::Machine machine(spec.p, kBspParams);
      (void)machine.run(programs);
    }
    spec.result = &via_factory;
    {
      const auto programs = fam.bsp(spec);
      bsp::Machine machine(spec.p, kBspParams);
      (void)machine.run(programs);
    }
    EXPECT_EQ(via_entry, via_factory) << fam.name;
  }
}

}  // namespace
}  // namespace bsplogp
