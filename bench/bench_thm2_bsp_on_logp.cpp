// E2 (Theorem 2): a BSP superstep with w local work and an h-relation
// simulates on stall-free LogP in O(w + (Gh + L) * S(L,G,p,h)) time, with
// S = O(log p) in general and S = O(1) once h is large (h = Omega(p^eps +
// L log p)).
//
// Workload: one-superstep BSP programs routing random h-regular relations.
// For each (p, h) we report the simulated LogP time, the g=G/l=L BSP
// reference cost w + G*h + L, and their ratio — the measured S. The
// paper's shape: S decays from ~log p at small h toward a constant at
// large h.
#include <iostream>

#include "bench/harness.h"
#include "src/core/rng.h"
#include "src/routing/h_relation.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"

using namespace bsplogp;

namespace {

struct Point {
  ProcId p;
  Time h;
};

struct PointResult {
  Time r = 0;
  Time s = 0;
  Time cycles = 0;
  Time t_sim = 0;
  Time ref = 0;
  bool stall_free = false;
  std::int64_t violations = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(r);
    ar(s);
    ar(cycles);
    ar(t_sim);
    ar(ref);
    ar(stall_free);
    ar(violations);
  }
};

PointResult run_point(const Point& pt, const logp::Params& prm,
                      std::uint64_t base_seed, std::size_t index,
                      trace::TraceSink* sink) {
  // Each grid point draws its relation from its own rng_for_index stream:
  // the relation is a pure function of (base_seed, index), independent of
  // which thread runs the point and in what order.
  core::Rng rng = core::rng_for_index(base_seed, index);
  const auto rel = routing::random_regular(pt.p, pt.h, rng);
  auto progs = workload::relation_step(rel);
  xsim::BspOnLogpOptions opt;
  opt.engine.sink = sink;
  xsim::BspOnLogp sim(pt.p, prm, opt);
  const auto rp = sim.run(progs);
  PointResult r;
  r.t_sim = rp.logp.finish_time;
  // The reference BSP cost of the communication superstep alone.
  for (const auto& st : rp.steps) r.ref += st.w_max + prm.G * st.h + prm.L;
  const auto& s0 = rp.steps.front();
  r.r = s0.r;
  r.s = s0.s;
  r.cycles = s0.h;
  r.stall_free = rp.logp.stall_free();
  r.violations = rp.schedule_violations;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "thm2_bsp_on_logp");
  rep.use_workloads({"h-relation-step"});
  const logp::Params prm{16, 1, 2};
  const std::uint64_t base_seed = 4242;

  auto& table =
      rep.series("slowdown_vs_h", {"p", "h", "r", "s", "cycles", "T_LogP",
                                   "w+G*h+L", "S (slowdown)", "stallfree",
                                   "violations"});
  if (rep.list()) return rep.finish();

  std::cout << "E2 / Theorem 2: BSP superstep on stall-free LogP\n"
               "LogP machine: L=16, o=1, G=2 (capacity 8); workload: random "
               "h-regular relation\n\n";
  const std::vector<ProcId> ps = rep.smoke()
                                     ? std::vector<ProcId>{4}
                                     : std::vector<ProcId>{4, 8, 16, 64};
  const std::vector<Time> hs =
      rep.smoke() ? std::vector<Time>{1, 16}
                  : std::vector<Time>{1, 4, 16, 64, 256, 1024};
  std::vector<Point> grid;
  for (const ProcId p : ps)
    for (const Time h : hs) grid.push_back(Point{p, h});

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      grid.size(),
      [&](std::size_t i) {
        return run_point(grid[i], prm, base_seed, i, nullptr);
      });

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PointResult& r = results[i];
    table.row({grid[i].p, grid[i].h, r.r, r.s, r.cycles, r.t_sim, r.ref,
               bench::Cell(static_cast<double>(r.t_sim) /
                               static_cast<double>(r.ref),
                           2),
               r.stall_free ? "yes" : "NO", r.violations});
  }
  table.print(std::cout);
  if (rep.trace_sink() != nullptr)
    (void)run_point(grid.front(), prm, base_seed, 0, rep.trace_sink());
  std::cout
      << "\nShape check: for fixed p, S falls as h grows (synchronization "
         "and sorting\namortize) and flattens once Columnsort takes over "
         "(r >= 2(p-1)^2): the S=O(1)\nregime. For small h, S grows with "
         "p like the sort depth — log^2 p here, since\nthe AKS network is "
         "substituted by bitonic (DESIGN.md); the paper's AKS bound\n"
         "would give log p. Stall-free must read 'yes' everywhere: that "
         "is Theorem 2's\nprotocol guarantee.\n";
  return rep.finish();
}
