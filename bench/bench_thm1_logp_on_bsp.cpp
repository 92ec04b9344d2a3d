// E1 (Theorem 1): a stall-free LogP program simulated on BSP has slowdown
// O(1 + g/G + l/L) — constant when g = Theta(G) and l = Theta(L).
//
// We run two stall-free LogP workloads natively and under the cycle
// simulation across a (g/G, l/L) grid, and report measured slowdown next
// to the predicted multiplier 1 + g/G + l/L. The claim holds if the
// measured/predicted ratio stays within a constant band across the grid.
#include <functional>
#include <iostream>

#include "bench/harness.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"
#include "src/xsim/logp_on_bsp.h"

using namespace bsplogp;

namespace {

/// One cell of the (workload, p, g/G, l/L) sweep grid.
struct Point {
  const char* name;
  std::function<std::vector<logp::ProgramFn>()> make;
  ProcId p;
  Time gr;
  Time lr;
};

/// What one grid point measures. Everything the table row needs comes back
/// in one value, so points can run on any thread in any order.
struct PointResult {
  Time t_native = 0;
  Time t_bsp = 0;
  double slowdown = 0;
  double predicted = 0;
  bool capacity_ok = false;

  template <class Ar>
  void io(Ar& ar) {
    ar(t_native);
    ar(t_bsp);
    ar(slowdown);
    ar(predicted);
    ar(capacity_ok);
  }
};

PointResult run_point(const Point& pt, const logp::Params& prm,
                      trace::TraceSink* sink) {
  logp::Machine native(pt.p, prm);
  const auto native_stats = native.run(pt.make());
  xsim::LogpOnBspOptions opt;
  opt.bsp = bsp::Params{pt.gr * prm.G, pt.lr * prm.L};
  opt.sink = sink;
  xsim::LogpOnBsp sim(pt.p, prm, opt);
  const auto rep = sim.run(pt.make());
  PointResult r;
  r.t_native = native_stats.finish_time;
  r.t_bsp = rep.bsp.finish_time;
  r.slowdown =
      static_cast<double>(r.t_bsp) / static_cast<double>(r.t_native);
  r.predicted = xsim::predicted_slowdown_thm1(prm, opt.bsp);
  r.capacity_ok = rep.capacity_ok;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "thm1_logp_on_bsp");
  rep.use_workloads({"all-to-all", "cb-rounds"});
  const logp::Params prm{16, 1, 4};
  auto& s = rep.series("slowdown_grid",
                       {"workload", "p", "g/G", "l/L", "T_LogP", "T_BSP",
                        "slowdown", "1+g/G+l/L", "ratio", "stallfree"});
  if (rep.list()) return rep.finish();

  std::cout << "E1 / Theorem 1: stall-free LogP on BSP, slowdown "
               "O(1 + g/G + l/L)\n"
               "LogP machine: L=16, o=1, G=4 (capacity 4)\n\n";
  // The --deep grids extend the full ones (never replace points), so
  // every regular row reappears unchanged in the nightly deep run.
  const std::vector<ProcId> ps = rep.smoke()   ? std::vector<ProcId>{8}
                                 : rep.deep()  ? std::vector<ProcId>{16, 64, 128}
                                               : std::vector<ProcId>{16, 64};
  const std::vector<Time> grs = rep.smoke()  ? std::vector<Time>{1, 4}
                                : rep.deep() ? std::vector<Time>{1, 2, 4, 8, 16}
                                             : std::vector<Time>{1, 2, 4, 8};
  const std::vector<Time> lrs = rep.smoke()  ? std::vector<Time>{1}
                                : rep.deep() ? std::vector<Time>{1, 4, 16, 64}
                                             : std::vector<Time>{1, 4, 16};

  std::vector<Point> grid;
  for (const ProcId p : ps)
    for (const auto& [name, make] :
         {std::pair<const char*, std::function<std::vector<logp::ProgramFn>()>>{
              "all-to-all", [p] { return workload::all_to_all(p); }},
          {"cb-x4", [p] { return workload::cb_rounds(p, 4); }}})
      for (const Time gr : grs)
        for (const Time lr : lrs)
          grid.push_back(Point{name, make, p, gr, lr});

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      grid.size(),
      [&](std::size_t i) { return run_point(grid[i], prm, nullptr); });

  double worst_ratio = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& pt = grid[i];
    const PointResult& r = results[i];
    worst_ratio = std::max(worst_ratio, r.slowdown / r.predicted);
    s.row({pt.name, pt.p, pt.gr, pt.lr, r.t_native, r.t_bsp,
           bench::Cell(r.slowdown, 2), bench::Cell(r.predicted, 1),
           bench::Cell(r.slowdown / r.predicted, 2),
           r.capacity_ok ? "yes" : "NO"});
  }
  s.print(std::cout);
  rep.metric("worst_ratio", worst_ratio);
  // Representative traced run, on this thread: ChromeTraceSink is not
  // thread-safe, so traces never come from sweep workers.
  if (rep.trace_sink() != nullptr)
    (void)run_point(grid.front(), prm, rep.trace_sink());
  std::cout << "\nShape check: 'ratio' (measured/predicted) should stay "
               "within a constant band\nacross the grid — the paper's "
               "slowdown is Theta(1 + g/G + l/L).\n";
  return rep.finish();
}
