#include "src/net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/net/packet_sim.h"

namespace bsplogp::net {
namespace {

constexpr TopologyKind kAllKinds[] = {
    TopologyKind::Ring,           TopologyKind::Mesh2D,
    TopologyKind::Mesh3D,         TopologyKind::HypercubeMulti,
    TopologyKind::HypercubeSingle, TopologyKind::Butterfly,
    TopologyKind::CubeConnectedCycles, TopologyKind::ShuffleExchange,
    TopologyKind::MeshOfTrees};

/// No node is unreachable from node 0.
bool reaches_every_node(const Topology& t) {
  const auto dist = t.distances_from(0);
  return std::none_of(dist.begin(), dist.end(),
                      [](NodeId d) { return d < 0; });
}

TEST(Topology, RingShape) {
  const Topology t = make_topology(TopologyKind::Ring, 10);
  EXPECT_EQ(t.size(), 10);
  EXPECT_EQ(t.nprocs(), 10);
  EXPECT_EQ(t.max_degree(), 2);
  EXPECT_EQ(t.diameter(), 5);
  EXPECT_TRUE(reaches_every_node(t));
}

TEST(Topology, Mesh2DShape) {
  const Topology t = make_topology(TopologyKind::Mesh2D, 16);
  EXPECT_EQ(t.size(), 16);  // 4x4 torus
  EXPECT_EQ(t.max_degree(), 4);
  EXPECT_EQ(t.diameter(), 4);  // 2 + 2 with wraparound
}

TEST(Topology, Mesh2DRoundsUp) {
  const Topology t = make_topology(TopologyKind::Mesh2D, 10);
  EXPECT_EQ(t.size(), 16);  // next square
}

TEST(Topology, Mesh3DShape) {
  const Topology t = make_topology(TopologyKind::Mesh3D, 27);
  EXPECT_EQ(t.size(), 27);
  EXPECT_EQ(t.max_degree(), 6);
  EXPECT_TRUE(reaches_every_node(t));
}

TEST(Topology, HypercubeShape) {
  const Topology t = make_topology(TopologyKind::HypercubeMulti, 32);
  EXPECT_EQ(t.size(), 32);
  EXPECT_EQ(t.max_degree(), 5);
  EXPECT_EQ(t.diameter(), 5);  // = dimension
  EXPECT_FALSE(t.single_port());
  const Topology s = make_topology(TopologyKind::HypercubeSingle, 32);
  EXPECT_TRUE(s.single_port());
}

TEST(Topology, ButterflyShape) {
  const Topology t = make_topology(TopologyKind::Butterfly, 32);
  // n * 2^n >= 32: n = 3 gives 24 < 32, n = 4 gives 64.
  EXPECT_EQ(t.size(), 64);
  EXPECT_EQ(t.max_degree(), 4);  // 2 forward + 2 backward edges
  EXPECT_TRUE(reaches_every_node(t));
  EXPECT_GE(t.diameter(), 4);
  EXPECT_LE(t.diameter(), 10);  // O(n)
}

TEST(Topology, CccShape) {
  const Topology t = make_topology(TopologyKind::CubeConnectedCycles, 24);
  EXPECT_EQ(t.size(), 24);  // 3 * 2^3
  EXPECT_EQ(t.max_degree(), 3);
  EXPECT_TRUE(reaches_every_node(t));
}

TEST(Topology, ShuffleExchangeShape) {
  const Topology t = make_topology(TopologyKind::ShuffleExchange, 16);
  EXPECT_EQ(t.size(), 16);
  EXPECT_LE(t.max_degree(), 3);
  EXPECT_TRUE(reaches_every_node(t));
  EXPECT_LE(t.diameter(), 2 * 4);  // 2 log p
}

TEST(Topology, MeshOfTreesShape) {
  const Topology t = make_topology(TopologyKind::MeshOfTrees, 16);
  EXPECT_EQ(t.nprocs(), 16);            // 4x4 leaves
  EXPECT_GT(t.size(), t.nprocs());      // internal tree nodes exist
  EXPECT_EQ(t.size(), 16 + 2 * 4 * 3);  // 2 * side * (side - 1) internals
  EXPECT_TRUE(reaches_every_node(t));
  // Leaves sit in one row tree and one column tree.
  for (ProcId i = 0; i < 16; ++i)
    EXPECT_EQ(t.neighbors(t.processors()[static_cast<std::size_t>(i)]).size(),
              2u);
}

class AllTopologies : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(AllTopologies, BasicInvariants) {
  for (const ProcId p : {8, 16, 64}) {
    const Topology t = make_topology(GetParam(), p);
    EXPECT_GE(t.nprocs(), p);
    EXPECT_TRUE(reaches_every_node(t));
    EXPECT_GT(t.analytic_gamma(), 0.0);
    EXPECT_GT(t.analytic_delta(), 0.0);
    // Adjacency is symmetric.
    for (NodeId v = 0; v < t.size(); ++v)
      for (const NodeId u : t.neighbors(v)) {
        const auto back = t.neighbors(u);
        EXPECT_NE(std::find(back.begin(), back.end(), v), back.end())
            << to_string(GetParam()) << " edge " << v << "-" << u;
      }
    // Diameter is at least the analytic delta's order (sanity) and finite.
    EXPECT_GE(t.diameter(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllTopologies, ::testing::ValuesIn(kAllKinds),
    [](const auto& param_info) {
      std::string name = to_string(param_info.param);
      std::erase(name, '-');
      return name;
    });

TEST(Topology, EveryKindFitsPacketSimHopMasksAtMaxP) {
  // The benches build p <= 256 and topology_params accepts p <= 4096.
  // Only the hypercube's degree keeps growing with p (log p), so no
  // topology the repo builds is wider than these, and PacketSim's degree
  // precondition never fires.
  for (const auto kind : kAllKinds)
    EXPECT_LE(make_topology(kind, 4096).max_degree(), PacketSim::kMaxDegree)
        << to_string(kind);
}

/// The diameter by definition: the largest distance any plain BFS finds.
NodeId largest_bfs_distance(const Topology& t) {
  NodeId diam = 0;
  for (NodeId v = 0; v < t.size(); ++v)
    for (const NodeId d : t.distances_from(v)) diam = std::max(diam, d);
  return diam;
}

/// A hand-built graph with every node a processor.
Topology hand_built(NodeId n, const std::vector<Edge>& edges) {
  std::vector<NodeId> procs(static_cast<std::size_t>(n));
  std::iota(procs.begin(), procs.end(), 0);
  return Topology(TopologyKind::Ring, n, edges, std::move(procs));
}

Topology path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return hand_built(n, edges);
}

TEST(Topology, EdgeListIsNormalized) {
  // Edge 0-1 in both orientations, 1-2 twice, a self-loop at 2, and 3-0.
  const Topology t =
      hand_built(4, {{0, 1}, {1, 0}, {1, 2}, {1, 2}, {2, 2}, {3, 0}});
  const std::vector<std::vector<NodeId>> expected{{1, 3}, {0, 2}, {1}, {0}};
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto nb = t.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(nb.begin(), nb.end()),
              expected[static_cast<std::size_t>(v)])
        << "node " << v;
  }
  EXPECT_EQ(t.max_degree(), 2);
}

TEST(TopologyDeathTest, EdgeEndpointOutOfRangeAborts) {
  EXPECT_DEATH((void)hand_built(3, {{0, 1}, {1, 3}}), "b < size_");
  EXPECT_DEATH((void)hand_built(3, {{-1, 1}}), "a >= 0");
}

TEST(Topology, DiameterMatchesBfsFromEveryNode) {
  // Sizes on both sides of a 64-source pass, and shapes that stress both
  // frontier modes: paths keep a sparse frontier across pass edges, and a
  // complete graph puts every node in the first frontier.
  for (const auto kind : kAllKinds)
    for (const ProcId p : {2, 3, 5, 16, 17, 63, 64, 65, 100, 256}) {
      const Topology t = make_topology(kind, p);
      EXPECT_EQ(t.diameter(), largest_bfs_distance(t))
          << to_string(kind) << " p=" << p << " (" << t.size()
          << " nodes)";
    }
  for (const NodeId n : {63, 64, 65, 129}) {
    const Topology t = path(n);
    EXPECT_EQ(largest_bfs_distance(t), n - 1);
    EXPECT_EQ(t.diameter(), n - 1) << "path of " << n;
  }
  const NodeId kComplete = 65;
  std::vector<Edge> edges;
  for (NodeId v = 0; v < kComplete; ++v)
    for (NodeId u = v + 1; u < kComplete; ++u) edges.emplace_back(v, u);
  const Topology complete = hand_built(kComplete, edges);
  EXPECT_EQ(largest_bfs_distance(complete), 1);
  EXPECT_EQ(complete.diameter(), 1);
}

TEST(TopologyDeathTest, DiameterOfADisconnectedGraphAborts) {
  // Two triangles: every source of the one pass misses the other half.
  const Topology t = hand_built(6, {{0, 1}, {1, 2}, {2, 0},
                                    {3, 4}, {4, 5}, {5, 3}});
  EXPECT_DEATH((void)t.diameter(), "disconnected");
}

TEST(Topology, DiameterTracksAnalyticDelta) {
  // Within each family the measured diameter should scale like delta(p).
  for (const auto kind :
       {TopologyKind::Ring, TopologyKind::Mesh2D,
        TopologyKind::HypercubeMulti}) {
    const Topology small = make_topology(kind, 16);
    const Topology big = make_topology(kind, 256);
    const double measured_ratio =
        static_cast<double>(big.diameter()) /
        static_cast<double>(small.diameter());
    const double analytic_ratio =
        big.analytic_delta() / small.analytic_delta();
    EXPECT_NEAR(measured_ratio, analytic_ratio, analytic_ratio * 0.5 + 0.5)
        << to_string(kind);
  }
}

}  // namespace
}  // namespace bsplogp::net
