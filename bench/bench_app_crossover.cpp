// Application crossover: the three partitioned application families
// (stencil-2d, sample-sort, bsf-iterative — src/workload/apps.h) executed
// four ways per grid point, so the Theorem 1/2 slowdown claims are
// measured on application-shaped programs instead of synthetic traffic:
//
//   T_bsp   — the family's BSP programs on the native bsp::Machine,
//   T_logp  — the family's LogP programs on the native logp::Machine,
//   T1      — the LogP programs hosted on BSP (xsim::LogpOnBsp, Thm 1):
//             the host machine's BSP finish time,
//   T2      — the BSP programs hosted on LogP (xsim::BspOnLogp, Thm 2):
//             the host machine's LogP finish time.
//
// Every point also cross-checks the per-processor result vectors of all
// four executions against each other (the differential contract), so a
// simulator that drifts logically can never report a plausible time.
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/bsp/machine.h"
#include "src/logp/machine.h"
#include "src/workload/apps.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"
#include "src/xsim/logp_on_bsp.h"

using namespace bsplogp;

namespace {

constexpr logp::Params kLogp{16, 1, 4};
constexpr bsp::Params kBsp{3, 5};

struct AppPoint {
  std::string family;
  workload::Spec spec;
};

struct PointResult {
  Time bsp = 0;
  Time logp = 0;
  Time thm1 = 0;
  Time thm2 = 0;
  bool consistent = true;

  template <class Ar>
  void io(Ar& ar) {
    ar(bsp);
    ar(logp);
    ar(thm1);
    ar(thm2);
    ar(consistent);
  }
};

PointResult run_point(const AppPoint& pt) {
  const workload::Entry* e = workload::find(pt.family);
  PointResult r;
  std::vector<Word> res_bsp, res_logp, res_t1, res_t2;
  {
    workload::Spec spec = pt.spec;
    spec.result = &res_bsp;
    auto progs = e->bsp(spec);
    bsp::Machine machine(spec.p, kBsp);
    r.bsp = machine.run(progs).finish_time;
  }
  {
    workload::Spec spec = pt.spec;
    spec.result = &res_logp;
    auto progs = e->logp(spec);
    logp::Machine machine(spec.p, kLogp);
    const logp::RunStats st = machine.run(progs);
    if (!st.completed()) r.consistent = false;
    r.logp = st.finish_time;
  }
  {
    workload::Spec spec = pt.spec;
    spec.result = &res_t1;
    auto progs = e->logp(spec);
    xsim::LogpOnBsp sim(spec.p, kLogp, xsim::LogpOnBspOptions{kBsp});
    const xsim::LogpOnBspReport rep = sim.run(progs);
    if (rep.stuck) r.consistent = false;
    r.thm1 = rep.bsp.finish_time;
  }
  {
    workload::Spec spec = pt.spec;
    spec.result = &res_t2;
    auto progs = e->bsp(spec);
    xsim::BspOnLogp sim(spec.p, kLogp);
    const xsim::BspOnLogpReport rep = sim.run(progs);
    if (!rep.logp.completed() || rep.schedule_violations != 0)
      r.consistent = false;
    r.thm2 = rep.logp.finish_time;
  }
  if (res_bsp != res_logp || res_bsp != res_t1 || res_bsp != res_t2)
    r.consistent = false;
  return r;
}

void add_point(std::vector<AppPoint>& pts, const std::string& family,
               ProcId p, std::int64_t nx, std::int64_t ny, int rounds) {
  workload::Spec spec;
  spec.p = p;
  spec.nx = nx;
  spec.ny = ny;
  spec.rounds = rounds;
  spec.seed = 11;
  pts.push_back(AppPoint{family, bench::Reporter::checked_spec(family, spec)});
}

double ratio(Time num, Time den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "app_crossover");
  rep.use_workloads({"stencil-2d", "sample-sort", "bsf-iterative"});
  auto& table = rep.series(
      "app_crossover", {"family", "p", "nx", "ny", "rounds", "T_bsp",
                        "T_logp", "T1 (logp-on-bsp)", "T2 (bsp-on-logp)",
                        "slow1", "slow2"});
  if (rep.list()) return rep.finish();

  std::cout << "Application crossover: partitioned app families on all "
               "four executors\nLogP machine: L=" << kLogp.L
            << ", o=" << kLogp.o << ", G=" << kLogp.G
            << "; BSP machine: g=" << kBsp.g << ", l=" << kBsp.l << "\n\n";

  // --deep appends points and never shifts existing ones, so every regular
  // row reappears unchanged in the nightly deep run.
  std::vector<AppPoint> pts;
  if (rep.smoke()) {
    add_point(pts, "stencil-2d", 4, 12, 8, 2);
    add_point(pts, "sample-sort", 4, 64, 1, 1);
    add_point(pts, "bsf-iterative", 4, 40, 1, 3);
  } else {
    for (const ProcId p : {4, 8, 16})
      add_point(pts, "stencil-2d", p, 32, 24, 4);
    add_point(pts, "stencil-2d", 8, 64, 48, 4);
    for (const std::int64_t n : {256, 1024, 4096})
      add_point(pts, "sample-sort", 8, n, 1, 1);
    add_point(pts, "sample-sort", 16, 4096, 1, 1);
    for (const std::int64_t n : {128, 512, 2048})
      add_point(pts, "bsf-iterative", 8, n, 1, 6);
    add_point(pts, "bsf-iterative", 16, 2048, 1, 6);
    if (rep.deep()) {
      add_point(pts, "stencil-2d", 16, 96, 64, 6);
      add_point(pts, "sample-sort", 16, 16384, 1, 1);
      add_point(pts, "bsf-iterative", 16, 8192, 1, 10);
    }
  }

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      pts.size(), [&](std::size_t i) { return run_point(pts[i]); });

  for (std::size_t i = 0; i < pts.size(); ++i) {
    const AppPoint& pt = pts[i];
    const PointResult& r = results[i];
    if (!r.consistent)
      bench::Reporter::diag("WARNING: executors disagree at point " +
                            std::to_string(i) + " (" + pt.family + ")");
    table.row({pt.family, pt.spec.p, pt.spec.nx, pt.spec.ny, pt.spec.rounds,
               r.bsp, r.logp, r.thm1, r.thm2,
               bench::Cell(ratio(r.thm1, r.logp), 2),
               bench::Cell(ratio(r.thm2, r.bsp), 2)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: slow1 and slow2 are the Theorem 1/2 "
               "simulation slowdowns\nmeasured on application-shaped "
               "programs — both stay modest constants as the\nproblem "
               "sizes grow, which is the paper's asymptotic-equivalence "
               "claim\napplied to programs people actually run.\n";
  return rep.finish();
}
