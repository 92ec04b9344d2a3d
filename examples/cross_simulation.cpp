// The paper's headline results, end to end:
//
//   Theorem 1 — a LogP program (an all-to-all exchange) runs natively on
//   the LogP machine and then, unmodified, under the BSP cycle simulation;
//   the measured slowdown is compared with the predicted O(1 + g/G + l/L).
//
//   Theorem 2 — a BSP program (odd-even block sort) runs natively on the
//   BSP machine and then, unmodified, on the LogP machine through the
//   CB-synchronize / sort / clocked-cycles protocol; the report shows the
//   per-superstep (r, s, h) and certifies the run was stall-free.
//
// Exits 1 if any simulated run's results differ from the native run's.
#include <iostream>

#include "src/algo/bsp_algorithms.h"
#include "src/bsp/machine.h"
#include "src/core/rng.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"
#include "src/xsim/logp_on_bsp.h"

using namespace bsplogp;

namespace {

/// Returns whether every simulated run's results matched the native run.
bool theorem1() {
  const ProcId p = 16;
  const logp::Params logp_params{16, 1, 4};
  std::cout << "== Theorem 1: stall-free LogP on BSP ==\n"
            << "workload: all-to-all exchange, p=" << p << ", L=16 o=1 G=4\n";

  bool all_match = true;
  std::vector<Word> native;
  logp::Machine machine(p, logp_params);
  const auto native_stats = machine.run(workload::all_to_all(p, &native));
  std::cout << "native LogP time       = " << native_stats.finish_time
            << "\n";

  for (const Time g_ratio : {1, 4}) {
    for (const Time l_ratio : {1, 4}) {
      std::vector<Word> sims;
      xsim::LogpOnBspOptions opt;
      opt.bsp = bsp::Params{g_ratio * logp_params.G,
                            l_ratio * logp_params.L};
      xsim::LogpOnBsp sim(p, logp_params, opt);
      const auto rep = sim.run(workload::all_to_all(p, &sims));
      all_match = all_match && sims == native;
      std::cout << "BSP host g=" << opt.bsp.g << " l=" << opt.bsp.l
                << ": results match=" << (sims == native ? "yes" : "NO")
                << "  capacity-ok=" << (rep.capacity_ok ? "yes" : "NO")
                << "  BSP time=" << rep.bsp.finish_time
                << "  slowdown=" << rep.slowdown() << "  predicted O("
                << xsim::predicted_slowdown_thm1(logp_params, opt.bsp)
                << ")\n";
    }
  }
  std::cout << "\n";
  return all_match;
}

/// Returns whether the simulated run's results matched the native run.
bool theorem2() {
  const ProcId p = 8;
  const std::size_t block = 16;
  const logp::Params logp_params{16, 1, 4};
  std::cout << "== Theorem 2: BSP on stall-free LogP ==\n"
            << "workload: odd-even block sort, p=" << p << ", " << block
            << " keys/processor, L=16 o=1 G=4\n";

  core::Rng rng(2026);
  const auto blocks = workload::random_blocks(p, block, -999, 999, rng);

  std::vector<std::vector<Word>> native_out;
  auto native_progs = algo::bsp_odd_even_sort(p, blocks, native_out);
  bsp::Machine native(p, bsp::Params{logp_params.G, logp_params.L});
  const auto native_stats = native.run(native_progs);

  std::vector<std::vector<Word>> sim_out;
  auto sim_progs = algo::bsp_odd_even_sort(p, blocks, sim_out);
  xsim::BspOnLogp sim(p, logp_params);
  const auto rep = sim.run(sim_progs);

  std::cout << "results match native   = "
            << (sim_out == native_out ? "yes" : "NO") << "\n"
            << "native BSP time (g=G,l=L) = " << native_stats.finish_time << "\n"
            << "simulated LogP time    = " << rep.logp.finish_time << "\n"
            << "slowdown               = " << rep.slowdown(logp_params)
            << "  (Theorem 2: O(S(L,G,p,h)), at most O(log p))\n"
            << "stall-free             = "
            << (rep.logp.stall_free() ? "yes" : "NO")
            << "   schedule violations = " << rep.schedule_violations << "\n"
            << "supersteps             = " << rep.supersteps << "\n";
  std::cout << "per-superstep (r, s, h):";
  for (const auto& st : rep.steps)
    std::cout << " (" << st.r << "," << st.s << "," << st.h << ")";
  std::cout << "\n";
  return sim_out == native_out;
}

}  // namespace

int main() {
  const bool thm1_match = theorem1();
  const bool thm2_match = theorem2();
  return thm1_match && thm2_match ? 0 : 1;
}
