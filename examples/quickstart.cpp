// Quickstart: write and run one program on each model.
//
//   1. BSP (Section 2.1): a parallel prefix sum over p processors, with the
//      machine's exact cost accounting  T = sum_s (w_s + g*h_s + l).
//   2. LogP (Section 2.2): a Combine-and-Broadcast (Section 4.1) under the
//      (L, o, G) timing rules, with stall/capacity statistics.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Exits 1 (after printing) if a computed value misses its "(expect ...)".
#include <algorithm>
#include <iostream>

#include "src/algo/bsp_algorithms.h"
#include "src/algo/logp_collectives.h"
#include "src/bsp/machine.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"

using namespace bsplogp;

namespace {

constexpr Word kLastPrefix = 136;  // 1 + 2 + ... + 16
constexpr Word kGlobalMax = 16;

/// Runs the BSP prefix sum; true iff its last prefix is kLastPrefix.
bool run_bsp() {
  const ProcId p = 16;
  const bsp::Params params{/*g=*/4, /*l=*/32};

  std::vector<Word> input(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i) input[static_cast<std::size_t>(i)] = i + 1;

  std::vector<Word> prefix;
  const auto programs =
      algo::bsp_prefix_scan(p, input, algo::ReduceOp::Sum, prefix);

  bsp::Machine machine(p, params);
  const bsp::RunStats stats = machine.run(programs);

  std::cout << "[BSP]  prefix-sum of 1..16 on p=16, g=4, l=32\n"
            << "       last prefix   = " << prefix.back() << " (expect "
            << kLastPrefix << ")\n"
            << "       supersteps    = " << stats.supersteps << "\n"
            << "       messages      = " << stats.messages << "\n"
            << "       model time    = " << stats.finish_time << " steps\n";
  std::cout << "       per superstep (w, h, cost):";
  for (const auto& ss : stats.trace)
    std::cout << " (" << ss.w << "," << ss.h << "," << ss.total(params)
              << ")";
  std::cout << "\n\n";
  if (prefix.back() == kLastPrefix) return true;
  std::cerr << "quickstart: BSP last prefix " << prefix.back()
            << " != " << kLastPrefix << "\n";
  return false;
}

/// Runs the LogP combine-and-broadcast; true iff every processor learned
/// kGlobalMax.
bool run_logp() {
  const ProcId p = 16;
  const logp::Params params{/*L=*/16, /*o=*/2, /*G=*/4};

  // Each processor contributes i+1; everyone learns the global max.
  // The CB family comes from the workload registry (src/workload) — the
  // same single definition every bench and test uses.
  std::vector<Word> result;
  const auto programs = workload::cb_rounds(
      p, /*rounds=*/1, algo::ReduceOp::Max,
      [](ProcId i) { return static_cast<Word>(i) + 1; }, &result);

  logp::Machine machine(p, params);
  const logp::RunStats stats = machine.run(programs);

  std::cout << "[LogP] combine-and-broadcast(max) on p=16, L=16, o=2, G=4\n"
            << "       result        = " << result[0] << " (expect "
            << kGlobalMax << ")\n"
            << "       completion    = " << stats.finish_time << " steps\n"
            << "       T_CB bound    = " << algo::cb_time_bound(params, p)
            << " (Proposition 2 shape)\n"
            << "       messages      = " << stats.messages << "\n"
            << "       stall-free    = " << (stats.stall_free() ? "yes" : "no")
            << "  (CB is stall-free by construction)\n"
            << "       max in-transit/dest = " << stats.max_in_transit
            << " (capacity " << params.capacity() << ")\n";
  if (std::all_of(result.begin(), result.end(),
                  [](Word v) { return v == kGlobalMax; }))
    return true;
  std::cerr << "quickstart: a LogP processor's max is not " << kGlobalMax
            << "\n";
  return false;
}

}  // namespace

int main() {
  std::cout << "bsplogp quickstart: one program on each model\n\n";
  const bool bsp_ok = run_bsp();
  const bool logp_ok = run_logp();
  return bsp_ok && logp_ok ? 0 : 1;
}
