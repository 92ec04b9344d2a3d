// Point-to-point network topologies for the Section-5 analysis: the paper's
// Table 1 lists, for each prominent interconnection, the bandwidth
// parameter gamma(p) and diameter delta(p) that govern the best attainable
// BSP and LogP parameters (g ~ gamma, l ~ delta; G ~ gamma, L ~ gamma +
// delta). This module builds the graphs and reports their analytic
// parameters; net/packet_sim.h measures them empirically.
//
// Table 1 entries (gamma, delta):
//   d-dim array:        p^{1/d},  p^{1/d}
//   hypercube (multi):  1,        log p
//   hypercube (single): log p,    log p
//   butterfly/CCC/SE:   log p,    log p
//   pruned butterfly /
//   mesh-of-trees:      sqrt(p),  log p
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/types.h"

namespace bsplogp::net {

using NodeId = std::int32_t;

enum class TopologyKind {
  Ring,              // 1-dim array (wraparound)
  Mesh2D,            // 2-dim array (torus)
  Mesh3D,            // 3-dim array (torus)
  HypercubeMulti,    // hypercube, all dimensions usable per step
  HypercubeSingle,   // hypercube, one port per node per step
  Butterfly,         // wrapped butterfly: n*2^n nodes
  CubeConnectedCycles,
  ShuffleExchange,
  MeshOfTrees,       // the pruned-butterfly / mesh-of-trees row
};

[[nodiscard]] std::string to_string(TopologyKind kind);

/// An undirected edge between two nodes.
using Edge = std::pair<NodeId, NodeId>;

/// An undirected point-to-point network. Nodes 0..size-1; a subset of
/// nodes (the "processor" nodes) carries the p logical endpoints — for most
/// topologies every node is a processor, but e.g. a mesh-of-trees computes
/// only at the leaves. The adjacency is stored once, as CSR arcs, and is
/// symmetric by construction.
class Topology {
 public:
  /// Each edge {a, b} becomes the arcs a -> b and b -> a; self-loops and
  /// repeated edges are dropped. Endpoints and processors lie in 0..size-1.
  Topology(TopologyKind kind, NodeId size, std::span<const Edge> edges,
           std::vector<NodeId> processors);

  [[nodiscard]] TopologyKind kind() const { return kind_; }
  [[nodiscard]] NodeId size() const { return size_; }
  /// v's neighbors, ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const;
  /// v's arcs are first_arc(v) .. first_arc(v + 1) - 1, to its neighbors in
  /// ascending order; first_arc(size()) is the arc count.
  [[nodiscard]] std::int32_t first_arc(NodeId v) const {
    return first_arc_[static_cast<std::size_t>(v)];
  }
  /// Every arc's far end: arc a runs to node arcs()[a].
  [[nodiscard]] std::span<const NodeId> arcs() const { return arcs_; }
  /// The processor nodes, in logical order: processor i lives at node
  /// processors()[i].
  [[nodiscard]] const std::vector<NodeId>& processors() const {
    return processors_;
  }
  [[nodiscard]] ProcId nprocs() const {
    return static_cast<ProcId>(processors_.size());
  }

  [[nodiscard]] NodeId max_degree() const;
  /// Exact graph diameter, by a bit-parallel BFS from 64 sources per pass.
  /// Requires a connected graph.
  [[nodiscard]] NodeId diameter() const;
  /// BFS distances from a single source; -1 marks an unreachable node.
  [[nodiscard]] std::vector<NodeId> distances_from(NodeId v) const;
  /// Whether single-port semantics apply (one message per node per step
  /// over all links) rather than multi-port (one per link per step).
  [[nodiscard]] bool single_port() const {
    return kind_ == TopologyKind::HypercubeSingle;
  }

  /// Table-1 analytic bandwidth parameter gamma(p) for this instance.
  [[nodiscard]] double analytic_gamma() const;
  /// Table-1 analytic latency parameter delta(p) for this instance.
  [[nodiscard]] double analytic_delta() const;

 private:
  TopologyKind kind_;
  NodeId size_;
  std::vector<std::int32_t> first_arc_;  // size + 1 entries
  std::vector<NodeId> arcs_;
  std::vector<NodeId> processors_;
};

/// Factory: builds the topology whose processor count is >= p_request
/// (rounded up to the kind's natural size: power of two, square, etc.).
[[nodiscard]] Topology make_topology(TopologyKind kind, ProcId p_request);

}  // namespace bsplogp::net
