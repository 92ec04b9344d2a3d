#include "src/net/packet_sim.h"

#include <gtest/gtest.h>

#include "src/core/rng.h"
#include "tests/support/fnv64.h"

namespace bsplogp::net {
namespace {

constexpr TopologyKind kAllKinds[] = {
    TopologyKind::Ring,           TopologyKind::Mesh2D,
    TopologyKind::Mesh3D,         TopologyKind::HypercubeMulti,
    TopologyKind::HypercubeSingle, TopologyKind::Butterfly,
    TopologyKind::CubeConnectedCycles, TopologyKind::ShuffleExchange,
    TopologyKind::MeshOfTrees};

TEST(PacketSim, SingleMessageTakesDistanceSteps) {
  const PacketSim sim(make_topology(TopologyKind::Ring, 8));
  routing::HRelation rel(8);
  rel.add(0, 4);  // antipodal on the ring: distance 4
  const auto res = sim.route(rel, {});
  EXPECT_EQ(res.steps, 4);
  EXPECT_EQ(res.packets, 1);
  EXPECT_EQ(res.total_hops, 4);
  EXPECT_FALSE(res.timed_out);
}

TEST(PacketSim, EmptyRelationIsFree) {
  const PacketSim sim(make_topology(TopologyKind::Mesh2D, 16));
  const auto res = sim.route(routing::HRelation(16), {});
  EXPECT_EQ(res.steps, 0);
}

TEST(PacketSim, PermutationCompletesOnEveryTopology) {
  core::Rng rng(17);
  for (const auto kind : kAllKinds) {
    const PacketSim sim(make_topology(kind, 16));
    const auto rel =
        routing::random_permutation(sim.topology().nprocs(), rng);
    const auto res = sim.route(rel, {});
    EXPECT_FALSE(res.timed_out) << to_string(kind);
    EXPECT_GT(res.steps, 0) << to_string(kind);
    EXPECT_GE(res.steps, 1);
    // Every packet walked at least a shortest path's worth of hops.
    EXPECT_GE(res.total_hops, static_cast<std::int64_t>(rel.size()));
  }
}

TEST(PacketSim, HRelationScalesWithH) {
  core::Rng rng(19);
  const PacketSim sim(make_topology(TopologyKind::Mesh2D, 64));
  auto steps_at = [&](Time h) {
    const auto rel = routing::random_regular(64, h, rng);
    return sim.route(rel, {}).steps;
  };
  const Time t1 = steps_at(1);
  const Time t16 = steps_at(16);
  EXPECT_GT(t16, t1);
  EXPECT_LT(t16, 64 * t1);  // far from serial: pipelining works
}

TEST(PacketSim, SinglePortIsSlowerThanMultiPort) {
  core::Rng rng(23);
  const auto rel = routing::random_regular(32, 8, rng);
  const PacketSim multi(make_topology(TopologyKind::HypercubeMulti, 32));
  const PacketSim single(make_topology(TopologyKind::HypercubeSingle, 32));
  const auto tm = multi.route(rel, {}).steps;
  const auto ts = single.route(rel, {}).steps;
  EXPECT_GT(ts, tm);
}

TEST(PacketSim, ValiantHandlesAdversarialPattern) {
  // Bit-reversal-like pattern on a mesh concentrates direct routes;
  // Valiant's random intermediate must complete within a sane bound and
  // deliver everything.
  const ProcId p = 64;
  const PacketSim sim(make_topology(TopologyKind::Mesh2D, p));
  routing::HRelation rel(p);
  for (ProcId i = 0; i < p; ++i) {
    const ProcId j = static_cast<ProcId>(p - 1 - i);
    if (j != i) rel.add(i, j);
  }
  PacketSim::Options direct;
  PacketSim::Options valiant;
  valiant.valiant = true;
  valiant.seed = 5;
  const auto rd = sim.route(rel, direct);
  const auto rv = sim.route(rel, valiant);
  EXPECT_FALSE(rd.timed_out);
  EXPECT_FALSE(rv.timed_out);
  EXPECT_LE(rv.steps, 4 * rd.steps + 32);  // no catastrophic blowup
}

TEST(PacketSim, TimesOutOnTinyBudget) {
  core::Rng rng(29);
  const PacketSim sim(make_topology(TopologyKind::Ring, 64));
  const auto rel = routing::random_regular(64, 8, rng);
  PacketSim::Options opt;
  opt.max_steps = 2;
  const auto res = sim.route(rel, opt);
  EXPECT_TRUE(res.timed_out);
  // The cut-off keeps the counts of the steps it ran (pinned).
  EXPECT_EQ(res.steps, 2);
  EXPECT_EQ(res.packets, 512);
  EXPECT_EQ(res.total_hops, 256);
  EXPECT_EQ(res.max_queue, 7);
  opt.valiant = true;
  const auto rv = sim.route(rel, opt);
  EXPECT_TRUE(rv.timed_out);
  EXPECT_EQ(rv.steps, 2);
  EXPECT_EQ(rv.packets, 512);
  EXPECT_EQ(rv.total_hops, 255);
  EXPECT_EQ(rv.max_queue, 8);
}

TEST(PacketSim, FitRecoversRingBandwidth) {
  // On a p-ring, a random h-relation needs ~ h*p/4 steps (bisection):
  // gamma_hat should scale linearly with p.
  const std::vector<Time> hs{1, 2, 4, 8, 16};
  const PacketSim sim32(make_topology(TopologyKind::Ring, 32));
  const PacketSim sim64(make_topology(TopologyKind::Ring, 64));
  const auto f32 = fit_route_params(sim32, hs, 3, 7);
  const auto f64 = fit_route_params(sim64, hs, 3, 7);
  EXPECT_GT(f32.gamma_hat(), 0.0);
  const double ratio = f64.gamma_hat() / f32.gamma_hat();
  EXPECT_GT(ratio, 1.4);  // doubling p should ~double gamma
  EXPECT_LT(ratio, 3.0);
  EXPECT_GT(f64.fit.r_squared, 0.95);
}

TEST(PacketSim, FitHypercubeGammaNearlyConstant) {
  const std::vector<Time> hs{1, 2, 4, 8, 16};
  const PacketSim sim16(make_topology(TopologyKind::HypercubeMulti, 16));
  const PacketSim sim128(make_topology(TopologyKind::HypercubeMulti, 128));
  const auto f16 = fit_route_params(sim16, hs, 3, 11);
  const auto f128 = fit_route_params(sim128, hs, 3, 11);
  // Table 1: gamma = 1 for the multi-port hypercube; the fitted slope must
  // not grow materially with p.
  EXPECT_LT(f128.gamma_hat() / std::max(f16.gamma_hat(), 0.1), 2.5);
}

TEST(PacketSim, DirectRoutesWalkShortestPaths) {
  // Without Valiant every packet follows a shortest path, so the hop total
  // is the sum of the BFS distances between the messages' endpoint nodes.
  // The nine kinds cover both port semantics (HypercubeSingle is the
  // single-port one) and the routing-only inner nodes of MeshOfTrees.
  core::Rng rng(41);
  for (const auto kind : kAllKinds) {
    const Topology topo = make_topology(kind, 64);
    const PacketSim sim(topo);
    auto rel = routing::random_regular(topo.nprocs(), 8, rng);
    rel.add(3, 3);  // delivered where it starts: no hop
    const auto node = [&](ProcId i) {
      return topo.processors()[static_cast<std::size_t>(i)];
    };
    std::int64_t expected = 0;
    for (const Message& m : rel.messages())
      expected += topo.distances_from(node(m.src))[static_cast<std::size_t>(
          node(m.dst))];
    const auto res = sim.route(rel, {});
    EXPECT_FALSE(res.timed_out) << to_string(kind);
    EXPECT_EQ(res.packets, static_cast<std::int64_t>(rel.size()))
        << to_string(kind);
    EXPECT_EQ(res.total_hops, expected) << to_string(kind);
  }
}

using testsupport::Fnv64;

TEST(PacketSim, GoldenResultsPerTopology) {
  // Every Result field of 12 routes per (kind, p): random h-regular
  // relations at h = 1, 8, 32, each routed direct and via Valiant at route
  // seeds 3 and 11. The pins catch any change to queue order, tie-breaks,
  // Valiant's draws or the max_queue high-water mark. The p = 256
  // hypercubes are the only rows whose nodes have 7 or 8 shortest-path
  // candidates.
  struct Golden {
    TopologyKind kind;
    ProcId p;
    std::uint64_t hash;
  };
  constexpr Golden kGolden[] = {
      {TopologyKind::Ring, 16, 0x55e97d96b5c9de30ULL},
      {TopologyKind::Ring, 64, 0xc9c3cb5d24e31002ULL},
      {TopologyKind::Mesh2D, 16, 0xf19ef45fb0349eb6ULL},
      {TopologyKind::Mesh2D, 64, 0xa0a7f1982de7c186ULL},
      {TopologyKind::Mesh3D, 16, 0x8b4b932941f87273ULL},
      {TopologyKind::Mesh3D, 64, 0x2b2f9e418ca8053dULL},
      {TopologyKind::HypercubeMulti, 16, 0x555e4e3799a19ed7ULL},
      {TopologyKind::HypercubeMulti, 64, 0x71b83573bc987f7cULL},
      {TopologyKind::HypercubeSingle, 16, 0xc308ff787f3e69a0ULL},
      {TopologyKind::HypercubeSingle, 64, 0x7662cd345c2b0438ULL},
      {TopologyKind::Butterfly, 16, 0x68faff37ad244a47ULL},
      {TopologyKind::Butterfly, 64, 0x21d2f7e51eba1697ULL},
      {TopologyKind::CubeConnectedCycles, 16, 0x8eecde0bdc688d80ULL},
      {TopologyKind::CubeConnectedCycles, 64, 0xbe9fa4e278116be6ULL},
      {TopologyKind::ShuffleExchange, 16, 0xabd42f65ba50bcc2ULL},
      {TopologyKind::ShuffleExchange, 64, 0x2cdf7c3550e24d43ULL},
      {TopologyKind::MeshOfTrees, 16, 0xc67baa28a9c2cbecULL},
      {TopologyKind::MeshOfTrees, 64, 0xc77edf041bf6965cULL},
      {TopologyKind::HypercubeMulti, 256, 0x47fd6e5a6d42b3edULL},
      {TopologyKind::HypercubeSingle, 256, 0xbce11bea8d016427ULL},
  };
  for (const Golden& g : kGolden) {
    const PacketSim sim(make_topology(g.kind, g.p));
    core::Rng rng(static_cast<std::uint64_t>(g.p));
    Fnv64 h;
    for (const Time hdeg : {1, 8, 32}) {
      const auto rel =
          routing::random_regular(sim.topology().nprocs(), hdeg, rng);
      for (const bool valiant : {false, true})
        for (const std::uint64_t seed : {3ULL, 11ULL}) {
          PacketSim::Options opt;
          opt.valiant = valiant;
          opt.seed = seed;
          const auto res = sim.route(rel, opt);
          EXPECT_FALSE(res.timed_out);
          for (const std::int64_t v :
               {res.steps, res.total_hops, res.max_queue, res.packets,
                std::int64_t{res.timed_out}})
            h.add(v);
        }
    }
    EXPECT_EQ(h.value(), g.hash)
        << to_string(g.kind) << " p=" << g.p << std::hex << " 0x"
        << h.value();
  }
}

TEST(PacketSimDeathTest, RejectsNodesWiderThanTheHopMask) {
  // A star whose hub has one link more than a next-hop mask has bits.
  const NodeId leaves = PacketSim::kMaxDegree + 1;
  std::vector<Edge> edges;
  std::vector<NodeId> procs;
  for (NodeId leaf = 1; leaf <= leaves; ++leaf) {
    edges.emplace_back(0, leaf);
    procs.push_back(leaf);
  }
  Topology star(TopologyKind::MeshOfTrees, leaves + 1, edges,
                std::move(procs));
  EXPECT_DEATH(PacketSim{std::move(star)}, "kMaxDegree");
}

TEST(PacketSim, DeterministicPerSeed) {
  core::Rng rng(31);
  const PacketSim sim(make_topology(TopologyKind::Mesh2D, 16));
  const auto rel = routing::random_regular(16, 4, rng);
  PacketSim::Options opt;
  opt.seed = 77;
  EXPECT_EQ(sim.route(rel, opt).steps, sim.route(rel, opt).steps);
}

}  // namespace
}  // namespace bsplogp::net
