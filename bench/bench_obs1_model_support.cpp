// E8 (Observation 1): on point-to-point networks, the best attainable
// stall-free LogP parameters match the best attainable BSP parameters:
// G* = Theta(g*) and L* = Theta(l* + g*).
//
// The conceivable gap is that LogP only needs ceil(L/G)-relations routed
// fast, while BSP needs arbitrary h-relations: maybe small-degree routing
// is cheaper per message? We test exactly that: on each topology we fit
// the per-message cost twice — once over the small-h range a LogP
// implementation needs (h <= 8, a typical ceil(L/G)) and once over the
// full range a BSP implementation needs — and compare the slopes. If the
// restriction bought nothing (slopes comparable), Observation 1 holds.
#include <iostream>

#include "bench/harness.h"
#include "src/net/packet_sim.h"
#include "src/net/topology.h"

using namespace bsplogp;

namespace {

struct PointResult {
  std::int64_t nprocs = 0;
  double gamma_small = 0;
  double gamma_large = 0;
  double delta_small = 0;
  double delta_large = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(nprocs);
    ar(gamma_small);
    ar(gamma_large);
    ar(delta_small);
    ar(delta_large);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "obs1_model_support");
  const int reps = rep.smoke() ? 2 : 6;
  auto& table = rep.series(
      "gamma_ratio", {"topology", "p", "gamma(small h)", "gamma(large h)",
                      "ratio", "delta(small h)", "delta(large h)"});
  if (rep.list()) return rep.finish();

  std::cout << "E8 / Observation 1: does restricting to small-degree "
               "relations buy better\nparameters? gamma fitted over h<=8 "
               "(LogP regime) vs h in [8,64] (BSP regime).\n\n";
  const std::vector<Time> small_h{1, 2, 4, 8};
  const std::vector<Time> large_h{8, 16, 32, 64};
  const std::vector<net::TopologyKind> kinds =
      rep.smoke()
          ? std::vector<net::TopologyKind>{net::TopologyKind::Ring,
                                           net::TopologyKind::Mesh2D,
                                           net::TopologyKind::HypercubeMulti}
          : std::vector<net::TopologyKind>{
                net::TopologyKind::Ring, net::TopologyKind::Mesh2D,
                net::TopologyKind::HypercubeMulti,
                net::TopologyKind::HypercubeSingle,
                net::TopologyKind::Butterfly,
                net::TopologyKind::CubeConnectedCycles,
                net::TopologyKind::ShuffleExchange,
                net::TopologyKind::MeshOfTrees};
  const ProcId p = rep.smoke() ? 16 : 64;

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      kinds.size(),
      [&](std::size_t i) {
        const net::Topology topo = net::make_topology(kinds[i], p);
        const net::PacketSim sim(topo);
        const auto fs = net::fit_route_params(sim, small_h, reps, 31);
        const auto fl = net::fit_route_params(sim, large_h, reps, 37);
        return PointResult{static_cast<std::int64_t>(topo.nprocs()),
                           fs.gamma_hat(), fl.gamma_hat(), fs.delta_hat(),
                           fl.delta_hat()};
      });

  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const PointResult& r = results[i];
    table.row({net::to_string(kinds[i]), r.nprocs,
               bench::Cell(r.gamma_small, 2), bench::Cell(r.gamma_large, 2),
               bench::Cell(r.gamma_large / std::max(r.gamma_small, 0.05), 2),
               bench::Cell(r.delta_small, 1), bench::Cell(r.delta_large, 1)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: the 'ratio' column stays within a small "
               "constant band around 1:\nper-message bandwidth is the "
               "same whether the machine routes the capped\nrelations "
               "stall-free LogP needs or the arbitrary h-relations BSP "
               "needs —\nG* = Theta(g*), and since any ceil(L/G)-relation "
               "must finish within L,\nL* = Theta(l* + g*).\n";
  return rep.finish();
}
