// E5 (Section 2.2): the Stalling Rule under hot-spot traffic.
//
// Three claims become measurements:
//   (a) the hot spot drains at the full bandwidth 1/G: completion tracks
//       o + nG + L for n incoming messages;
//   (b) a stalled h-relation still completes within the O(Gh^2) worst case
//       of Section 4.3's argument;
//   (c) stalling is "free" for fan-in cores: the naive stalling program
//       matches a slot-staged stall-free program, so the model can reward
//       stalling (the anomaly the paper flags).
#include <iostream>

#include "bench/harness.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"

using namespace bsplogp;

namespace {

struct Point {
  ProcId p;
  Time k;
};

struct Outcome {
  Time finish = 0;
  std::int64_t stalls = 0;
  Time stall_total = 0;
  Time stall_max = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(finish);
    ar(stalls);
    ar(stall_total);
    ar(stall_max);
  }
};

Outcome run_hotspot(ProcId p, Time k, const logp::Params& prm, bool staged,
                    trace::TraceSink* sink) {
  logp::Machine::Options mo;
  mo.sink = sink;
  logp::Machine machine(p, prm, mo);
  const auto st = machine.run(workload::hotspot(p, k, staged));
  return Outcome{st.finish_time, st.stall_events, st.stall_time_total,
                 st.stall_time_max};
}

struct PointResult {
  Outcome naive;
  Outcome staged;

  template <class Ar>
  void io(Ar& ar) {
    ar(naive);
    ar(staged);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "stalling_hotspot");
  rep.use_workloads({"hotspot"});
  const logp::Params prm{16, 1, 4};  // capacity 4
  auto& table = rep.series(
      "hotspot", {"p", "msgs n", "o+nG+L", "stall run", "staged run",
                  "stalls", "stall steps", "max stall", "G*n^2 bound"});
  if (rep.list()) return rep.finish();

  std::cout << "E5 / Section 2.2: Stalling Rule at a hot spot "
               "(L=16, o=1, G=4, capacity 4)\n\n";
  const std::vector<ProcId> ps = rep.smoke()
                                     ? std::vector<ProcId>{9}
                                     : std::vector<ProcId>{9, 17, 33, 65};
  const std::vector<Time> ks =
      rep.smoke() ? std::vector<Time>{1} : std::vector<Time>{1, 4};
  std::vector<Point> grid;
  for (const ProcId p : ps)
    for (const Time k : ks) grid.push_back(Point{p, k});

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      grid.size(),
      [&](std::size_t i) {
        return PointResult{
            run_hotspot(grid[i].p, grid[i].k, prm, false, nullptr),
            run_hotspot(grid[i].p, grid[i].k, prm, true, nullptr)};
      });

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& [p, k] = grid[i];
    const Time n = static_cast<Time>(p - 1) * k;
    const auto& r = results[i];
    table.row({p, n, prm.o + n * prm.G + prm.L, r.naive.finish,
               r.staged.finish, r.naive.stalls, r.naive.stall_total,
               r.naive.stall_max, prm.G * n * n});
  }
  table.print(std::cout);
  if (rep.trace_sink() != nullptr) {
    (void)run_hotspot(grid.front().p, grid.front().k, prm, false,
                      rep.trace_sink());
    (void)run_hotspot(grid.front().p, grid.front().k, prm, true,
                      rep.trace_sink());
  }
  std::cout << "\nShape check: both runs track o+nG+L (bandwidth-bound "
               "drain, claim a+c); the\nstalling run is far below the "
               "G*n^2 worst case (claim b); senders' lost time\ngrows "
               "quadratically ('stall steps'), which is the only price "
               "the model charges.\n";
  return rep.finish();
}
