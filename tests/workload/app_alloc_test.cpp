// Pins the application builders' allocation regime: building a family's
// inputs allocates per processor (its cell, key or element arrays and its
// send lists), never per cell, key or element. The per-element loops use
// part::AxisPart's closed forms; every N-D Partitioning query returns a
// heap Point, so one such call per element costs an allocation per
// element. Counted by core::AllocCounter via the replacement operator
// new/delete in alloc_hooks.cpp, which this binary links; the test skips
// (loudly) if the hooks are absent rather than pass vacuously.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/alloc_counter.h"
#include "src/workload/apps.h"

namespace bsplogp {
namespace {

struct AppPoint {
  const char* family;
  std::int64_t nx;
  std::int64_t ny;
  int rounds;
  std::vector<std::unique_ptr<bsp::ProcProgram>> (*bsp)(const workload::Spec&);
  std::vector<logp::ProgramFn> (*logp)(const workload::Spec&);
  std::vector<Word> (*oracle)(const workload::Spec&);
};

template <typename Fn>
std::int64_t allocs_of(Fn fn) {
  const auto before = core::AllocCounter::now();
  (void)fn();
  return core::AllocCounter::since(before).allocs;
}

TEST(AppAlloc, BuildersAllocatePerProcessorNotPerElement) {
  if (!core::AllocCounter::installed())
    GTEST_SKIP() << "alloc hooks not linked into this binary";

  // bench_app_crossover's --deep points, which perfbench also replays: the
  // largest inputs the three families are built for. The builders hold
  // thousands of cells, keys or elements per processor, so a cap of 256
  // allocations per processor fails on any per-element allocation while
  // leaving room for per-processor vectors, their growth and the
  // programs' own captures.
  constexpr ProcId kProcs = 16;
  constexpr std::int64_t kCap = 256 * kProcs;
  const AppPoint points[] = {
      {"stencil-2d", 96, 64, 6, workload::stencil2d_bsp,
       workload::stencil2d_logp, workload::stencil2d_expected},
      {"sample-sort", 16384, 1, 1, workload::samplesort_bsp,
       workload::samplesort_logp, workload::samplesort_expected},
      {"bsf-iterative", 8192, 1, 10, workload::bsf_bsp, workload::bsf_logp,
       workload::bsf_expected},
  };
  for (const AppPoint& pt : points) {
    workload::Spec s;
    s.p = kProcs;
    s.nx = pt.nx;
    s.ny = pt.ny;
    s.rounds = pt.rounds;
    EXPECT_LE(allocs_of([&] { return pt.bsp(s); }), kCap)
        << pt.family << " BSP factory";
    EXPECT_LE(allocs_of([&] { return pt.logp(s); }), kCap)
        << pt.family << " LogP factory";
    EXPECT_LE(allocs_of([&] { return pt.oracle(s); }), kCap)
        << pt.family << " serial oracle";
  }
}

}  // namespace
}  // namespace bsplogp
