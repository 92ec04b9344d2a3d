// Workload netsim: every PacketSim run of the suite. The packet simulator
// and the topology BFS do all the work; no abstract machine runs.
#include <memory>

#include "layers.h"
#include "src/net/topology.h"

namespace perfbench {

namespace {

using namespace bsplogp;

/// One relation routed by a parameter fit, with its route seed.
struct Trial {
  routing::HRelation rel;
  std::uint64_t route_seed = 0;
};

/// The relations net::fit_route_params(sim, hs, trials, fit_seed) draws,
/// in its order.
void draw_fit(std::vector<Trial>& out, ProcId nprocs,
              std::initializer_list<Time> hs, int trials,
              std::uint64_t fit_seed, Ledger* setup) {
  core::Rng rng(fit_seed);
  for (const Time h : hs)
    for (int t = 0; t < trials; ++t) {
      routing::HRelation rel = gen_regular(nprocs, h, rng, setup);
      out.push_back(Trial{std::move(rel), rng()});
    }
}

/// A topology and its simulator (with the per-destination distance
/// fields its constructor precomputes), plus the graph facts the benches
/// print: table1 reports the diameter, obs1 does not compute it (-1).
struct Net {
  std::shared_ptr<const net::PacketSim> sim;
  std::int64_t nodes = 0;
  std::int64_t diameter = -1;
};

Net build_net(net::TopologyKind kind, ProcId p, bool with_diameter,
              Ledger* setup) {
  return timed(setup, kNetBuild, [&] {
    const net::Topology topo = net::make_topology(kind, p);
    return Net{std::make_shared<const net::PacketSim>(topo), topo.size(),
               with_diameter ? topo.diameter() : -1};
  });
}

Point fit_point(std::string label, const Net& n,
                std::shared_ptr<const std::vector<Trial>> trials) {
  return {std::move(label), [n, trials](Ledger* lg) {
            Outcome o;
            o.add({n.sim->topology().nprocs(), n.nodes, n.diameter});
            for (const Trial& t : *trials) {
              const auto res = run_net_route(*n.sim, t.rel, t.route_seed, lg);
              o.add({res.steps});
              o.require(!res.timed_out, "packets left undelivered");
            }
            return o;
          }};
}

const net::TopologyKind kAllKinds[] = {
    net::TopologyKind::Ring,           net::TopologyKind::Mesh2D,
    net::TopologyKind::Mesh3D,         net::TopologyKind::HypercubeMulti,
    net::TopologyKind::HypercubeSingle, net::TopologyKind::Butterfly,
    net::TopologyKind::CubeConnectedCycles,
    net::TopologyKind::ShuffleExchange, net::TopologyKind::MeshOfTrees};

/// bench_table1_topologies: one T(h) fit per topology and machine size.
Section table1(std::uint64_t seed, Ledger* setup) {
  Section sec;
  for (const auto kind : kAllKinds)
    for (const ProcId p : {16, 64, 256}) {
      const Net n = build_net(kind, p, true, setup);
      auto trials = std::make_shared<std::vector<Trial>>();
      draw_fit(*trials, n.sim->topology().nprocs(), {1, 2, 4, 8, 16, 32}, 4,
               mix_seed(777, seed), setup);
      sec.push_back(fit_point(
          "table1 " + net::to_string(kind) + " p=" + std::to_string(p), n,
          std::move(trials)));
    }
  return sec;
}

/// bench_obs1_model_support: small-h and large-h fits at p=64 (every
/// topology but Mesh3D).
Section obs1(std::uint64_t seed, Ledger* setup) {
  Section sec;
  for (const auto kind : kAllKinds) {
    if (kind == net::TopologyKind::Mesh3D) continue;
    const Net n = build_net(kind, 64, false, setup);
    const ProcId nprocs = n.sim->topology().nprocs();
    auto trials = std::make_shared<std::vector<Trial>>();
    draw_fit(*trials, nprocs, {1, 2, 4, 8}, 6, mix_seed(31, seed), setup);
    draw_fit(*trials, nprocs, {8, 16, 32, 64}, 6, mix_seed(37, seed), setup);
    sec.push_back(
        fit_point("obs1 " + net::to_string(kind), n, std::move(trials)));
  }
  return sec;
}

}  // namespace

Workload build_netsim(std::uint64_t seed, Ledger* setup) {
  Workload w;
  w.push_back(table1(seed, setup));
  w.push_back(obs1(seed, setup));
  return w;
}

}  // namespace perfbench
