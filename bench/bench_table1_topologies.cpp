// E7 (Table 1): bandwidth and latency parameters of prominent topologies.
//
// For each interconnection and several machine sizes we route random
// h-relations on the packet simulator, fit T(h) = gamma_hat*h + delta_hat,
// and print the fitted values next to the paper's analytic gamma(p),
// delta(p). The claim is about growth *rates*: gamma_hat should scale like
// the table's gamma column across p within each family (and likewise
// delta_hat / the diameter).
#include <iostream>

#include "bench/harness.h"
#include "src/net/packet_sim.h"
#include "src/net/topology.h"

using namespace bsplogp;

namespace {

struct Point {
  net::TopologyKind kind;
  ProcId p;
};

struct PointResult {
  std::int64_t nprocs = 0;
  std::int64_t nodes = 0;
  std::int64_t diameter = 0;
  double gamma_hat = 0;
  double analytic_gamma = 0;
  double delta_hat = 0;
  double analytic_delta = 0;
  double r_squared = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(nprocs);
    ar(nodes);
    ar(diameter);
    ar(gamma_hat);
    ar(analytic_gamma);
    ar(delta_hat);
    ar(analytic_delta);
    ar(r_squared);
  }
};

PointResult run_point(const Point& pt, const std::vector<Time>& hs,
                      int reps) {
  const net::Topology topo = net::make_topology(pt.kind, pt.p);
  const net::PacketSim sim(topo);
  const auto fit = net::fit_route_params(sim, hs, reps, 777);
  PointResult r;
  r.nprocs = static_cast<std::int64_t>(topo.nprocs());
  r.nodes = static_cast<std::int64_t>(topo.size());
  r.diameter = static_cast<std::int64_t>(topo.diameter());
  r.gamma_hat = fit.gamma_hat();
  r.analytic_gamma = topo.analytic_gamma();
  r.delta_hat = fit.delta_hat();
  r.analytic_delta = topo.analytic_delta();
  r.r_squared = fit.fit.r_squared;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "table1_topologies");
  const int reps = rep.smoke() ? 2 : 4;
  auto& table = rep.series(
      "fits", {"topology", "p(procs)", "nodes", "gamma_hat",
               "gamma(p) Table1", "delta_hat", "delta(p) Table1", "diam",
               "r^2"});
  if (rep.list()) return rep.finish();

  std::cout << "E7 / Table 1: empirical (gamma_hat, delta_hat) per "
               "topology via T(h) fits\n("
            << reps << " random h-regular relations per h in "
                       "{1,2,4,8,16,32})\n\n";
  const std::vector<Time> hs{1, 2, 4, 8, 16, 32};
  const std::vector<ProcId> ps = rep.smoke()
                                     ? std::vector<ProcId>{16}
                                     : std::vector<ProcId>{16, 64, 256};
  std::vector<Point> grid;
  for (const auto kind :
       {net::TopologyKind::Ring, net::TopologyKind::Mesh2D,
        net::TopologyKind::Mesh3D, net::TopologyKind::HypercubeMulti,
        net::TopologyKind::HypercubeSingle, net::TopologyKind::Butterfly,
        net::TopologyKind::CubeConnectedCycles,
        net::TopologyKind::ShuffleExchange, net::TopologyKind::MeshOfTrees})
    for (const ProcId p : ps) grid.push_back(Point{kind, p});

  const bench::SweepRunner runner(rep);
  const auto results = runner.map<PointResult>(
      grid.size(), [&](std::size_t i) { return run_point(grid[i], hs, reps); });

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PointResult& r = results[i];
    table.row({net::to_string(grid[i].kind), r.nprocs, r.nodes,
               bench::Cell(r.gamma_hat, 2), bench::Cell(r.analytic_gamma, 2),
               bench::Cell(r.delta_hat, 2), bench::Cell(r.analytic_delta, 2),
               r.diameter, bench::Cell(r.r_squared, 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape check (within each family, p x16 => ...): ring "
               "gamma ~ p; 2d mesh ~ sqrt(p);\n3d mesh ~ p^(1/3); "
               "multi-port hypercube gamma ~ 1 while single-port and the\n"
               "constant-degree log-diameter networks grow ~ log p; "
               "mesh-of-trees ~ sqrt(p)\nwith log p latency.\n";
  return rep.finish();
}
