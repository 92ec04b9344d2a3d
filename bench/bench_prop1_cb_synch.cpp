// E3 (Propositions 1-2): Combine-and-Broadcast on the max{2, ceil(L/G)}-ary
// tree completes in T_CB = O(L log p / log(1 + ceil(L/G))), and this is
// optimal for CB. We measure T_CB across p for several capacity regimes
// and report the ratio to the formula L*log(p)/log(1+cap) — it should stay
// within a constant band per regime (the paper's constant is ~3(L+o)/L).
#include <cmath>
#include <iostream>

#include "bench/harness.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"

using namespace bsplogp;

namespace {

struct Regime {
  logp::Params prm;
  const char* label;
};

struct Point {
  const Regime* regime;
  ProcId p;
};

struct PointResult {
  Time t = 0;
  bool stall_free = true;

  template <class Ar>
  void io(Ar& ar) {
    ar(t);
    ar(stall_free);
  }
};

PointResult run_point(const Point& pt) {
  logp::Machine machine(pt.p, pt.regime->prm);
  const auto st = machine.run(workload::cb_rounds(pt.p, 1));
  return PointResult{st.finish_time, st.stall_free()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "prop1_cb_synch");
  rep.use_workloads({"cb-rounds"});
  auto& table = rep.series(
      "cb_time", {"regime", "L", "G", "cap", "p", "T_CB", "formula",
                  "ratio"});
  if (rep.list()) return rep.finish();

  std::cout << "E3 / Propositions 1-2: Combine-and-Broadcast time\n"
               "T_CB = Theta(L log p / log(1 + ceil(L/G)))\n\n";
  const Regime regimes[] = {
      {{4, 1, 4}, "cap=1 (binary + parity rule)"},
      {{8, 1, 4}, "cap=2"},
      {{16, 1, 2}, "cap=8"},
      {{64, 1, 2}, "cap=32"},
  };
  const std::vector<ProcId> ps =
      rep.smoke() ? std::vector<ProcId>{4, 16}
                  : std::vector<ProcId>{4, 16, 64, 256, 1024};
  std::vector<Point> grid;
  for (const auto& regime : regimes)
    for (const ProcId p : ps) grid.push_back(Point{&regime, p});

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      grid.size(), [&](std::size_t i) { return run_point(grid[i]); });

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& [prm, label] = *grid[i].regime;
    const ProcId p = grid[i].p;
    if (!results[i].stall_free)
      bench::Reporter::diag("WARNING: CB stalled at p=" + std::to_string(p));
    const double cap = static_cast<double>(prm.capacity());
    const double formula = static_cast<double>(prm.L) *
                           std::log2(static_cast<double>(p)) /
                           std::log2(1.0 + cap);
    table.row({label, prm.L, prm.G, prm.capacity(), p, results[i].t,
               bench::Cell(formula, 1),
               bench::Cell(static_cast<double>(results[i].t) / formula, 2)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: within each regime the ratio stabilizes as "
               "p grows (the bound is\ntight up to the paper's ~3(L+o)/L "
               "constant); larger capacity => wider tree =>\nflatter "
               "growth in p.\n";
  return rep.finish();
}
