// Ablation of the synchronization primitive's design choices (DESIGN.md):
//
//  (a) tree arity — the paper picks max{2, ceil(L/G)}. Narrower trees add
//      depth; wider trees exceed the capacity constraint and stall. We
//      sweep the arity and report time + stalls.
//  (b) CB structure — the paper's d-ary tree vs. the Karp-et-al greedy
//      schedule pair (reduce_opt + broadcast_opt).
//  (c) delivery-policy sensitivity — the adversarial Latest schedule vs.
//      Earliest vs. seeded-random, for the canonical CB.
#include <iostream>

#include "bench/harness.h"
#include "src/algo/logp_collectives.h"
#include "src/core/rng.h"
#include "src/core/table.h"
#include "src/logp/machine.h"
#include "src/routing/h_relation.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"
#include "src/xsim/logp_on_bsp.h"

using namespace bsplogp;

namespace {

struct Run {
  Time time = 0;
  std::int64_t stalls = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(time);
    ar(stalls);
  }
};

Run run_logp(ProcId p, const logp::Params& prm,
             std::vector<logp::ProgramFn> progs,
             logp::Machine::Options opt = {}) {
  logp::Machine m(p, prm, opt);
  const auto st = m.run(std::move(progs));
  return Run{st.finish_time, st.stall_events};
}

// Section results (file scope: local classes cannot carry the io() member
// template that --repeat's FieldBits walks).

/// Section (b): the d-ary tree CB next to the greedy schedule pair.
struct Pair {
  Run tree;
  Run greedy;

  template <class Ar>
  void io(Ar& ar) {
    ar(tree);
    ar(greedy);
  }
};

/// Section (d): the same relation routed clocked and free-running.
struct ModeRuns {
  Run clocked;
  Run free_running;

  template <class Ar>
  void io(Ar& ar) {
    ar(clocked);
    ar(free_running);
  }
};

/// Section (e): one cycle-length choice under Theorem 1's simulation.
struct CycleRun {
  std::int64_t supersteps = 0;
  Time finish = 0;
  bool capacity_ok = false;
  Time max_fan_in = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(supersteps);
    ar(finish);
    ar(capacity_ok);
    ar(max_fan_in);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "ablation_cb");
  rep.use_workloads(
      {"cb-arity", "cb-greedy-pair", "h-relation-step", "all-to-all"});
  const ProcId big_p = rep.smoke() ? 32 : 256;
  const bench::SweepRunner runner(rep);

  auto& arity_table = rep.series(
      "arity_sweep", {"L", "G", "cap", "arity", "T_CB", "stalls", "note"});
  auto& greedy_table = rep.series(
      "tree_vs_greedy", {"p", "L", "G", "tree CB", "greedy pair", "ratio"});
  auto& policy_table = rep.series("delivery_policy", {"policy", "T_CB"});
  auto& clocked_table = rep.series(
      "clocked_cycles", {"p", "workload", "mode", "T_LogP", "stalls"});
  auto& cycle_table = rep.series(
      "cycle_length",
      {"cycle", "supersteps", "T_BSP", "per-cycle cap ok", "max fan-in"});
  if (rep.list()) return rep.finish();

  std::cout << "Ablation: Combine-and-Broadcast design choices\n\n";

  {
    std::cout << "(a) tree arity sweep, p=" << big_p
              << " (paper's choice: max{2, ceil(L/G)})\n";
    const std::vector<ProcId> arities =
        rep.smoke() ? std::vector<ProcId>{2, 4, 8}
                    : std::vector<ProcId>{2, 4, 8, 16, 32};
    struct Point {
      logp::Params prm;
      ProcId arity;
    };
    std::vector<Point> grid;
    for (const auto& prm : {logp::Params{16, 1, 2}, logp::Params{8, 1, 4}})
      for (const ProcId arity : arities) grid.push_back(Point{prm, arity});
    const auto runs = runner.map<Run>(
        grid.size(),
        [&](std::size_t i) {
          return run_logp(big_p, grid[i].prm,
                          workload::cb_arity(big_p, grid[i].arity));
        });
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& [prm, arity] = grid[i];
      const Time cap = prm.capacity();
      std::string note;
      if (arity == std::max<Time>(2, cap)) note = "<- paper's choice";
      else if (arity > cap) note = "(beyond capacity)";
      arity_table.row({prm.L, prm.G, cap, static_cast<std::int64_t>(arity),
                       runs[i].time, runs[i].stalls, note});
    }
    arity_table.print(std::cout);
    std::cout << "Reading: widening up to the capacity threshold shrinks "
                 "depth for free; beyond it\nthe ascend phase stalls and "
                 "gains flatten or reverse — max{2,ceil(L/G)} is the "
                 "knee.\n\n";
  }

  {
    std::cout << "(b) d-ary tree CB vs greedy reduce+broadcast pair\n";
    const logp::Params prm{10, 2, 3};
    const std::vector<ProcId> ps =
        rep.smoke() ? std::vector<ProcId>{16, 64}
                    : std::vector<ProcId>{16, 64, 256, 1024};
    const auto runs = runner.map<Pair>(
        ps.size(),
        [&](std::size_t i) {
          const ProcId p = ps[i];
          return Pair{
              run_logp(p, prm, workload::cb_arity(p, algo::cb_arity(prm))),
              run_logp(p, prm, workload::cb_greedy_pair(p, prm))};
        });
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const auto& [tree, greedy] = runs[i];
      greedy_table.row({ps[i], prm.L, prm.G, tree.time, greedy.time,
                        bench::Cell(static_cast<double>(greedy.time) /
                                        static_cast<double>(tree.time),
                                    2)});
    }
    greedy_table.print(std::cout);
    std::cout << "Reading: both are Theta(L log p / log(1+cap)); the "
                 "greedy pair's constants win\nwhen capacity is small "
                 "(deep pipelining), the simple tree is competitive "
                 "otherwise.\n\n";
  }

  {
    std::cout << "(c) delivery-policy sensitivity of CB, p=" << big_p
              << "\n";
    const logp::Params prm{16, 1, 2};
    const std::vector<std::pair<logp::DeliverySchedule, const char*>>
        policies{{logp::DeliverySchedule::Latest, "Latest (adversarial)"},
                 {logp::DeliverySchedule::Earliest, "Earliest"},
                 {logp::DeliverySchedule::UniformRandom, "UniformRandom"}};
    const auto runs = runner.map<Run>(
        policies.size(),
        [&](std::size_t i) {
          logp::Machine::Options opt;
          opt.delivery = policies[i].first;
          opt.seed = 3;
          return run_logp(big_p, prm,
                          workload::cb_arity(big_p, algo::cb_arity(prm)),
                          opt);
        });
    for (std::size_t i = 0; i < policies.size(); ++i)
      policy_table.row({policies[i].second, runs[i].time});
    policy_table.print(std::cout);
    std::cout << "Reading: the spread bounds how much of T_CB is the "
                 "adversarial latency choice\n(at most ~L per level) — "
                 "the asymptotic shape is policy-independent.\n\n";
  }

  {
    std::cout << "(d) Theorem 2's routing cycles: globally clocked vs "
                 "free-running\n";
    const logp::Params prm{16, 1, 2};  // capacity 8
    const std::vector<ProcId> ps =
        rep.smoke() ? std::vector<ProcId>{8} : std::vector<ProcId>{8, 16};
    struct Point {
      ProcId p;
      bool regular;  // random h=32 relation vs hot-spot fan-in
    };
    std::vector<Point> grid;
    for (const ProcId p : ps)
      for (const bool regular : {true, false})
        grid.push_back(Point{p, regular});
    const auto runs = runner.map<ModeRuns>(grid.size(), [&](std::size_t i) {
      const Point& pt = grid[i];
      // Both modes must route the SAME relation, so the point draws it
      // once from its own stream and runs each mode on a fresh program.
      core::Rng rng = core::rng_for_index(71, i);
      const routing::HRelation rel =
          pt.regular ? routing::random_regular(pt.p, 32, rng)
                     : routing::hotspot(pt.p, 0, 8);
      ModeRuns mr;
      for (const bool clocked : {true, false}) {
        auto progs = workload::relation_step(rel);
        xsim::BspOnLogpOptions opt;
        opt.clocked_cycles = clocked;
        xsim::BspOnLogp sim(pt.p, prm, opt);
        const auto rp = sim.run(progs);
        (clocked ? mr.clocked : mr.free_running) =
            Run{rp.logp.finish_time, rp.logp.stall_events};
      }
      return mr;
    });
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Point& pt = grid[i];
      const char* label = pt.regular ? "regular h=32" : "fan-in 8(p-1)";
      clocked_table.row({pt.p, label, "clocked", runs[i].clocked.time,
                         runs[i].clocked.stalls});
      clocked_table.row({pt.p, label, "free-running",
                         runs[i].free_running.time,
                         runs[i].free_running.stalls});
    }
    clocked_table.print(std::cout);
    std::cout << "Reading: free-running transmission lets destinations "
                 "collide and stall; the\nglobal G-spaced cycle clock "
                 "(the paper's rank-mod-h decomposition) is what makes\n"
                 "Theorem 2's protocol stall-free, at little or no cost "
                 "in completion time.\n\n";
  }

  {
    std::cout << "(e) Theorem 1's cycle length: L/2 vs shorter and longer "
                 "cycles\n";
    // The proof of Theorem 1 needs: a stall-free program submits at most
    // ceil(L/G) messages per destination per cycle, which holds for cycles
    // of L/2 steps but not for longer ones (up to 2*ceil(L/G) fit in L
    // steps) — while shorter cycles just pay more barriers.
    const ProcId p = 16;
    const logp::Params prm{16, 1, 2};  // capacity 8
    const std::vector<Time> cycles{prm.L / 4, prm.L / 2, prm.L, 2 * prm.L};
    const auto runs = runner.map<CycleRun>(
        cycles.size(),
        [&](std::size_t i) {
          xsim::LogpOnBspOptions opt;
          opt.bsp = bsp::Params{prm.G, prm.L};
          opt.cycle_length = cycles[i];
          xsim::LogpOnBsp sim(p, prm, opt);
          const auto rp = sim.run(workload::all_to_all(p));
          return CycleRun{rp.bsp.supersteps, rp.bsp.finish_time,
                          rp.capacity_ok, rp.max_cycle_fan_in};
        });
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      std::string label = core::fmt(cycles[i]);
      if (cycles[i] == prm.L / 2) label += " (= L/2, paper)";
      cycle_table.row({label, runs[i].supersteps, runs[i].finish,
                       runs[i].capacity_ok ? "yes" : "NO",
                       runs[i].max_fan_in});
    }
    cycle_table.print(std::cout);
    std::cout << "Reading: short cycles multiply the barrier cost; cycles "
                 "longer than L/2 let a\nstall-free program exceed "
                 "ceil(L/G) submissions per destination per cycle\n"
                 "('cap ok' = NO), voiding the delivery-schedule argument "
                 "behind Theorem 1 —\nL/2 is the largest safe cycle.\n";
  }
  return rep.finish();
}
