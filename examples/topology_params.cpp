// Section 5 in action: measure a topology's bandwidth/latency parameters
// by routing random h-relations on the packet-level network simulator and
// fitting T(h) = gamma_hat * h + delta_hat, then compare against the
// paper's Table 1 entries.
//
// Usage: topology_params [kind] [p]
//   kind in {ring, mesh2d, mesh3d, hypercube-multi, hypercube-single,
//            butterfly, ccc, shuffle-exchange, mesh-of-trees}; p an
//            integer 2..4096; default mesh2d 64. Any other input prints
//            the usage to stderr and exits 2.
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/core/table.h"
#include "src/net/packet_sim.h"
#include "src/net/topology.h"

using namespace bsplogp;

namespace {

constexpr net::TopologyKind kKinds[] = {
    net::TopologyKind::Ring,           net::TopologyKind::Mesh2D,
    net::TopologyKind::Mesh3D,         net::TopologyKind::HypercubeMulti,
    net::TopologyKind::HypercubeSingle, net::TopologyKind::Butterfly,
    net::TopologyKind::CubeConnectedCycles,
    net::TopologyKind::ShuffleExchange, net::TopologyKind::MeshOfTrees};

[[noreturn]] void usage_and_exit(const std::string& complaint) {
  std::cerr << "topology_params: " << complaint << "\n"
            << "usage: topology_params [kind] [p]\n"
            << "  kind  one of";
  for (const auto kind : kKinds) std::cerr << ' ' << net::to_string(kind);
  std::cerr << " (default mesh2d)\n"
            << "  p     processor count, an integer 2..4096 (default 64)\n";
  std::exit(2);
}

net::TopologyKind parse_kind(const std::string& name) {
  for (const auto kind : kKinds)
    if (net::to_string(kind) == name) return kind;
  usage_and_exit("unknown topology '" + name + "'");
}

ProcId parse_procs(const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 2 || v > 4096)
    usage_and_exit(std::string("bad processor count '") + text +
                   "' (want an integer 2..4096)");
  return static_cast<ProcId>(v);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) usage_and_exit("too many arguments");
  const net::TopologyKind kind =
      argc > 1 ? parse_kind(argv[1]) : net::TopologyKind::Mesh2D;
  const ProcId p = argc > 2 ? parse_procs(argv[2]) : 64;

  const net::Topology topo = net::make_topology(kind, p);
  std::cout << "topology " << net::to_string(kind) << ": " << topo.nprocs()
            << " processors, " << topo.size() << " nodes, diameter "
            << topo.diameter() << ", max degree " << topo.max_degree()
            << "\n\n";

  const net::PacketSim sim(topo);
  const std::vector<Time> hs{1, 2, 4, 8, 16, 32};
  const net::ParamFit fit = net::fit_route_params(sim, hs, 4, 12345);

  core::Table table({"h", "mean route steps"});
  for (const auto& [h, steps] : fit.samples)
    table.add_row({core::fmt(h), core::fmt(steps, 1)});
  table.print(std::cout);

  std::cout << "\nfit T(h) = gamma*h + delta  (r^2 = "
            << core::fmt(fit.fit.r_squared, 4) << ")\n"
            << "  gamma_hat = " << core::fmt(fit.gamma_hat(), 2)
            << "   (Table 1 analytic gamma ~ "
            << core::fmt(topo.analytic_gamma(), 2) << ")\n"
            << "  delta_hat = " << core::fmt(fit.delta_hat(), 2)
            << "   (Table 1 analytic delta ~ "
            << core::fmt(topo.analytic_delta(), 2) << ")\n"
            << "\nBest attainable model parameters on this machine "
               "(Section 5):\n"
            << "  BSP:  g* ~ gamma, l* ~ delta\n"
            << "  LogP: G* ~ gamma, L* ~ gamma + delta  (Observation 1)\n";
  return 0;
}
