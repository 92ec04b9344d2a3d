#include "src/net/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "src/core/contracts.h"

namespace bsplogp::net {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Ring: return "ring";
    case TopologyKind::Mesh2D: return "mesh2d";
    case TopologyKind::Mesh3D: return "mesh3d";
    case TopologyKind::HypercubeMulti: return "hypercube-multi";
    case TopologyKind::HypercubeSingle: return "hypercube-single";
    case TopologyKind::Butterfly: return "butterfly";
    case TopologyKind::CubeConnectedCycles: return "ccc";
    case TopologyKind::ShuffleExchange: return "shuffle-exchange";
    case TopologyKind::MeshOfTrees: return "mesh-of-trees";
  }
  return "?";
}

Topology::Topology(TopologyKind kind, NodeId size, std::span<const Edge> edges,
                   std::vector<NodeId> processors)
    : kind_(kind), size_(size), processors_(std::move(processors)) {
  BSPLOGP_EXPECTS(size_ >= 1);
  BSPLOGP_EXPECTS(!processors_.empty());
  for (const NodeId v : processors_) BSPLOGP_EXPECTS(v >= 0 && v < size_);
  // Arcs are numbered in int32: two per edge must fit.
  BSPLOGP_EXPECTS(std::cmp_less_equal(
      edges.size(), std::numeric_limits<std::int32_t>::max() / 2));
  const auto n = static_cast<std::size_t>(size_);
  // Count each node's arcs into first_arc_[v] and sum them, so that
  // first_arc_[v] is the end of v's run; filling every run from its end
  // leaves first_arc_[v] at its start.
  first_arc_.assign(n + 1, 0);
  auto at = [&](NodeId v) -> std::int32_t& {
    return first_arc_[static_cast<std::size_t>(v)];
  };
  for (const auto& [a, b] : edges) {
    BSPLOGP_EXPECTS(a >= 0 && a < size_ && b >= 0 && b < size_);
    if (a == b) continue;
    ++at(a);
    ++at(b);
  }
  std::partial_sum(first_arc_.begin(), first_arc_.end(), first_arc_.begin());
  arcs_.resize(static_cast<std::size_t>(first_arc_[n]));
  for (const auto& [a, b] : edges) {
    if (a == b) continue;
    arcs_[static_cast<std::size_t>(--at(a))] = b;
    arcs_[static_cast<std::size_t>(--at(b))] = a;
  }
  // Sort each run and drop its repeats, moving it down over the repeats
  // dropped before it.
  auto out = arcs_.begin();
  for (std::size_t v = 0; v < n; ++v) {
    const auto first = arcs_.begin() + first_arc_[v];
    const auto last = arcs_.begin() + first_arc_[v + 1];
    std::sort(first, last);
    first_arc_[v] = static_cast<std::int32_t>(out - arcs_.begin());
    NodeId prev = -1;
    for (auto it = first; it != last; ++it)
      if (*it != prev) *out++ = prev = *it;
  }
  arcs_.erase(out, arcs_.end());
  first_arc_[n] = static_cast<std::int32_t>(arcs_.size());
}

std::span<const NodeId> Topology::neighbors(NodeId v) const {
  BSPLOGP_EXPECTS(v >= 0 && v < size_);
  const auto first = static_cast<std::size_t>(first_arc(v));
  return std::span(arcs_).subspan(
      first, static_cast<std::size_t>(first_arc(v + 1)) - first);
}

NodeId Topology::max_degree() const {
  std::int32_t d = 0;
  for (std::size_t v = 0; v + 1 < first_arc_.size(); ++v)
    d = std::max(d, first_arc_[v + 1] - first_arc_[v]);
  return d;
}

std::vector<NodeId> Topology::distances_from(NodeId v) const {
  BSPLOGP_EXPECTS(v >= 0 && v < size_);
  std::vector<NodeId> dist(static_cast<std::size_t>(size_), -1);
  std::queue<NodeId> frontier;
  dist[static_cast<std::size_t>(v)] = 0;
  frontier.push(v);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId w : neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(u)] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

NodeId Topology::diameter() const {
  // Bit-parallel BFS. A pass runs BFS from up to 64 consecutive sources at
  // once: bit k of a node's word stands for source first + k. The pass ends
  // at the first level that reaches no new (node, source) pair, so its
  // level count is the largest eccentricity among its sources, and the
  // largest count over all passes is the diameter.
  const auto n = static_cast<std::size_t>(size_);
  // frontier: the pairs first reached at the current level; next: those
  // of the level being built. Both are all zero between passes.
  std::vector<std::uint64_t> seen(n), frontier(n), next(n);
  std::vector<std::uint32_t> list, next_list;  // nodes with nonzero words
  NodeId diam = 0;
  for (std::size_t first = 0; first < n; first += 64) {
    const std::size_t count = std::min<std::size_t>(64, n - first);
    const std::uint64_t all =
        count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
    std::fill(seen.begin(), seen.end(), 0);
    list.clear();
    for (std::size_t k = 0; k < count; ++k) {
      seen[first + k] = frontier[first + k] = std::uint64_t{1} << k;
      list.push_back(static_cast<std::uint32_t>(first + k));
    }
    NodeId levels = 0;
    for (;; ++levels) {
      next_list.clear();
      if (list.size() * 4 < n) {
        // Push from a small frontier. Only this loop reads a frontier word,
        // so it clears each one as it goes.
        for (const std::uint32_t u : list) {
          const std::uint64_t reach = frontier[u];
          frontier[u] = 0;
          for (const NodeId v : neighbors(static_cast<NodeId>(u))) {
            const auto w = static_cast<std::uint32_t>(v);
            const std::uint64_t fresh = reach & ~seen[w];
            if (fresh == 0) continue;
            if (next[w] == 0) next_list.push_back(w);
            next[w] |= fresh;
            seen[w] |= fresh;
          }
        }
      } else {
        // Pull into every node some source has not reached yet. A node's
        // neighbors are its in-edges here because the adjacency is
        // symmetric.
        for (std::uint32_t w = 0; w < n; ++w) {
          if (seen[w] == all) continue;
          std::uint64_t reach = 0;
          for (const NodeId u : neighbors(static_cast<NodeId>(w)))
            reach |= frontier[static_cast<std::size_t>(u)];
          const std::uint64_t fresh = reach & ~seen[w];
          if (fresh == 0) continue;
          next[w] = fresh;
          seen[w] |= fresh;
          next_list.push_back(w);
        }
        for (const std::uint32_t u : list) frontier[u] = 0;
      }
      if (next_list.empty()) break;
      std::swap(frontier, next);
      std::swap(list, next_list);
    }
    for (const std::uint64_t s : seen)
      BSPLOGP_ASSERT(s == all && "diameter of a disconnected graph");
    diam = std::max(diam, levels);
  }
  return diam;
}

double Topology::analytic_gamma() const {
  const auto p = static_cast<double>(nprocs());
  switch (kind_) {
    case TopologyKind::Ring: return p;
    case TopologyKind::Mesh2D: return std::sqrt(p);
    case TopologyKind::Mesh3D: return std::cbrt(p);
    case TopologyKind::HypercubeMulti: return 1.0;
    case TopologyKind::HypercubeSingle:
    case TopologyKind::Butterfly:
    case TopologyKind::CubeConnectedCycles:
    case TopologyKind::ShuffleExchange: return std::log2(p);
    case TopologyKind::MeshOfTrees: return std::sqrt(p);
  }
  return 0;
}

double Topology::analytic_delta() const {
  const auto p = static_cast<double>(nprocs());
  switch (kind_) {
    case TopologyKind::Ring: return p;
    case TopologyKind::Mesh2D: return std::sqrt(p);
    case TopologyKind::Mesh3D: return std::cbrt(p);
    default: return std::log2(p);
  }
}

namespace {

/// Nodes 0..n-1, every one a processor.
std::vector<NodeId> all_nodes(NodeId n) {
  std::vector<NodeId> procs(static_cast<std::size_t>(n));
  std::iota(procs.begin(), procs.end(), 0);
  return procs;
}

Topology make_mesh(TopologyKind kind, ProcId p, int dims) {
  NodeId side = 2;
  auto total = [&](NodeId s) {
    NodeId t = 1;
    for (int d = 0; d < dims; ++d) t *= s;
    return t;
  };
  while (total(side) < p) ++side;
  const NodeId n = total(side);
  // Torus links: each node to its successor along each dimension. The ring
  // is the 1-dim torus.
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    NodeId stride = 1;
    for (int d = 0; d < dims; ++d) {
      const NodeId coord = (v / stride) % side;
      edges.emplace_back(v, v + ((coord + 1) % side - coord) * stride);
      stride *= side;
    }
  }
  return Topology(kind, n, edges, all_nodes(n));
}

Topology make_hypercube(TopologyKind kind, ProcId p) {
  const int n = std::max(1, ceil_log2(std::max<ProcId>(p, 2)));
  const NodeId size = NodeId{1} << n;
  // Each edge from its lower end, the one whose bit k is clear.
  std::vector<Edge> edges;
  for (NodeId v = 0; v < size; ++v)
    for (int k = 0; k < n; ++k)
      if ((v & (NodeId{1} << k)) == 0)
        edges.emplace_back(v, v | (NodeId{1} << k));
  return Topology(kind, size, edges, all_nodes(size));
}

Topology make_butterfly(ProcId p) {
  // Wrapped butterfly with n levels and 2^n rows: nodes (level, row);
  // straight and cross edges to the next level (mod n). n*2^n nodes, all
  // processors.
  int n = 2;
  while (n * (NodeId{1} << n) < p) ++n;
  const NodeId rows = NodeId{1} << n;
  const NodeId size = static_cast<NodeId>(n) * rows;
  auto id = [&](int level, NodeId row) {
    return static_cast<NodeId>(level) * rows + row;
  };
  std::vector<Edge> edges;
  for (int level = 0; level < n; ++level) {
    const int next = (level + 1) % n;
    for (NodeId row = 0; row < rows; ++row) {
      edges.emplace_back(id(level, row), id(next, row));
      edges.emplace_back(id(level, row), id(next, row ^ (NodeId{1} << level)));
    }
  }
  return Topology(TopologyKind::Butterfly, size, edges, all_nodes(size));
}

Topology make_ccc(ProcId p) {
  // Cube-connected cycles: hypercube corners expanded into n-cycles.
  int n = 3;
  while (n * (NodeId{1} << n) < p) ++n;
  const NodeId corners = NodeId{1} << n;
  const NodeId size = static_cast<NodeId>(n) * corners;
  auto id = [&](NodeId corner, int pos) {
    return corner * static_cast<NodeId>(n) + static_cast<NodeId>(pos);
  };
  // Each cycle edge from its position l to l + 1, and each cube edge from
  // the corner whose bit l is clear.
  std::vector<Edge> edges;
  for (NodeId w = 0; w < corners; ++w) {
    for (int l = 0; l < n; ++l) {
      edges.emplace_back(id(w, l), id(w, (l + 1) % n));
      if ((w & (NodeId{1} << l)) == 0)
        edges.emplace_back(id(w, l), id(w | (NodeId{1} << l), l));
    }
  }
  return Topology(TopologyKind::CubeConnectedCycles, size, edges,
                  all_nodes(size));
}

Topology make_shuffle_exchange(ProcId p) {
  const int n = std::max(2, ceil_log2(std::max<ProcId>(p, 4)));
  const NodeId size = NodeId{1} << n;
  const NodeId mask = size - 1;
  std::vector<Edge> edges;
  for (NodeId v = 0; v < size; ++v) {
    if ((v & 1) == 0) edges.emplace_back(v, v ^ 1);             // exchange
    edges.emplace_back(v, ((v << 1) | (v >> (n - 1))) & mask);  // shuffle
  }
  return Topology(TopologyKind::ShuffleExchange, size, edges,
                  all_nodes(size));
}

Topology make_mesh_of_trees(ProcId p) {
  // side x side grid of leaf processors; a complete binary tree over every
  // row and every column (internal nodes are routing-only).
  NodeId side = 2;
  while (side * side < p) side *= 2;  // power of two for clean trees
  const NodeId leaves = side * side;
  NodeId size = leaves;
  std::vector<Edge> edges;
  auto leaf = [&](NodeId row, NodeId col) { return row * side + col; };
  // Every row tree, then every column tree, each built level by level: a
  // level's parents replace its leading entries and are numbered after
  // the nodes already built.
  std::vector<NodeId> line(static_cast<std::size_t>(side));
  for (const bool rows : {true, false})
    for (NodeId i = 0; i < side; ++i) {
      for (NodeId j = 0; j < side; ++j)
        line[static_cast<std::size_t>(j)] = rows ? leaf(i, j) : leaf(j, i);
      for (std::size_t width = line.size(); width > 1; width /= 2)
        for (std::size_t k = 0; k < width / 2; ++k) {
          const NodeId parent = size++;
          edges.emplace_back(parent, line[2 * k]);
          edges.emplace_back(parent, line[2 * k + 1]);
          line[k] = parent;
        }
    }
  return Topology(TopologyKind::MeshOfTrees, size, edges, all_nodes(leaves));
}

}  // namespace

Topology make_topology(TopologyKind kind, ProcId p_request) {
  BSPLOGP_EXPECTS(p_request >= 2);
  switch (kind) {
    case TopologyKind::Ring:
      return make_mesh(kind, p_request, 1);
    case TopologyKind::Mesh2D:
      return make_mesh(kind, p_request, 2);
    case TopologyKind::Mesh3D:
      return make_mesh(kind, p_request, 3);
    case TopologyKind::HypercubeMulti:
    case TopologyKind::HypercubeSingle:
      return make_hypercube(kind, p_request);
    case TopologyKind::Butterfly:
      return make_butterfly(p_request);
    case TopologyKind::CubeConnectedCycles:
      return make_ccc(p_request);
    case TopologyKind::ShuffleExchange:
      return make_shuffle_exchange(p_request);
    case TopologyKind::MeshOfTrees:
      return make_mesh_of_trees(p_request);
  }
  BSPLOGP_ASSERT(false && "unknown topology kind");
  return make_mesh(TopologyKind::Ring, p_request, 1);
}

}  // namespace bsplogp::net
