// E9 (Section 3): simulating *stalling* LogP programs on BSP.
//
// Theorem 1's constant-slowdown simulation assumes stall-freeness. For
// stalling programs the executor emulates the Stalling Rule (senders pause
// until the hot spot's bandwidth admits them), which keeps results faithful
// and every superstep's h bounded by O(ceil(L/G)) — but that acceptance
// schedule is computed by the simulator as an oracle. An implementable BSP
// program must compute it distributively; the paper's sort/prefix sketch
// costs O(log p) extra supersteps per stalling cycle, for an overall
// O(((l+g)/G) log p) slowdown. We report:
//   * native LogP time (the engine's exact Stalling Rule),
//   * the oracle-scheduled simulation's BSP time and slowdown,
//   * the preprocessed (implementable) charged time and slowdown,
//   * the paper's ((l+g)/G) log p bound.
#include <cmath>
#include <iostream>

#include "bench/harness.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"
#include "src/xsim/logp_on_bsp.h"

using namespace bsplogp;

namespace {

struct PointResult {
  Time t_native = 0;
  Time t_bsp = 0;
  Time t_preproc = 0;
  std::int64_t stalls = 0;
  std::int64_t overloaded = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(t_native);
    ar(t_bsp);
    ar(t_preproc);
    ar(stalls);
    ar(overloaded);
  }
};

PointResult run_point(ProcId p, Time k, const logp::Params& prm,
                      const bsp::Params& host) {
  logp::Machine native(p, prm);
  const auto nat = native.run(workload::hotspot(p, k));

  xsim::LogpOnBspOptions opt;
  opt.bsp = host;
  xsim::LogpOnBsp sim(p, prm, opt);
  const auto rp = sim.run(workload::hotspot(p, k));

  PointResult r;
  r.t_native = nat.finish_time;
  r.t_bsp = rp.bsp.finish_time;
  r.t_preproc = rp.preprocessed_time(opt.bsp, p, prm.capacity());
  r.stalls = rp.stall_events;
  r.overloaded = rp.overloaded_supersteps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "stalling_sim_gap");
  rep.use_workloads({"hotspot"});
  const logp::Params prm{16, 1, 4};  // capacity 4
  const bsp::Params host{prm.G, prm.L};
  auto& table = rep.series(
      "stalling_sim",
      {"p", "msgs", "T_LogP", "T_BSP(oracle)", "oracle slow",
       "T_BSP(preproc)", "preproc slow", "((l+g)/G)log p", "stalls",
       "overloaded steps"});
  if (rep.list()) return rep.finish();

  std::cout << "E9 / Section 3: stalling LogP programs on BSP\n"
               "workload: all-to-one (stalls by design); L=16, o=1, G=4; "
               "BSP host g=G, l=L\n\n";
  const std::vector<ProcId> ps = rep.smoke()
                                     ? std::vector<ProcId>{9}
                                     : std::vector<ProcId>{9, 17, 33, 65};
  const Time k = 2;

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      ps.size(), [&](std::size_t i) { return run_point(ps[i], k, prm, host); });

  for (std::size_t i = 0; i < ps.size(); ++i) {
    const ProcId p = ps[i];
    const PointResult& r = results[i];
    const auto tn = static_cast<double>(r.t_native);
    const double bound = (static_cast<double>(host.l + host.g) /
                          static_cast<double>(prm.G)) *
                         std::log2(static_cast<double>(p));
    table.row({p, static_cast<Time>(p - 1) * k, r.t_native, r.t_bsp,
               bench::Cell(static_cast<double>(r.t_bsp) / tn, 2), r.t_preproc,
               bench::Cell(static_cast<double>(r.t_preproc) / tn, 2),
               bench::Cell(bound, 1), r.stalls, r.overloaded});
  }
  table.print(std::cout);
  std::cout
      << "\nShape check: the oracle-scheduled simulation already pays a "
         "constant-factor\npremium over native (its acceptance schedule "
         "is free); the implementable\nvariant — charged per the paper's "
         "sort/prefix recipe on every overloaded\ncycle — lands near the "
         "O(((l+g)/G) log p) column. Whether any simulation\ncan do "
         "better is the open question the paper leaves (a lower bound "
         "here would\nmean stalling adds computational power to LogP).\n";
  return rep.finish();
}
