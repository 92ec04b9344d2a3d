#include "src/net/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <numeric>
#include <queue>

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

Topology::Topology(TopologyKind kind, NodeId size,
                   std::vector<std::vector<NodeId>> adjacency,
                   std::vector<NodeId> processors)
    : kind_(kind),
      size_(size),
      adj_(std::move(adjacency)),
      processors_(std::move(processors)) {
  BSPLOGP_EXPECTS(size_ >= 1);
  BSPLOGP_EXPECTS(std::cmp_equal(adj_.size(), size_));
  BSPLOGP_EXPECTS(!processors_.empty());
  for (const NodeId v : processors_) BSPLOGP_EXPECTS(v >= 0 && v < size_);
  // Normalize adjacency: sorted, deduplicated, no self loops.
  for (NodeId v = 0; v < size_; ++v) {
    auto& nb = adj_[static_cast<std::size_t>(v)];
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    nb.erase(std::remove(nb.begin(), nb.end(), v), nb.end());
    for (const NodeId u : nb) BSPLOGP_EXPECTS(u >= 0 && u < size_);
  }
}

const std::vector<NodeId>& Topology::neighbors(NodeId v) const {
  BSPLOGP_EXPECTS(v >= 0 && v < size_);
  return adj_[static_cast<std::size_t>(v)];
}

NodeId Topology::max_degree() const {
  std::size_t d = 0;
  for (const auto& nb : adj_) d = std::max(d, nb.size());
  return static_cast<NodeId>(d);
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
    for (const NodeId w : adj_[static_cast<std::size_t>(u)]) {
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
          for (const NodeId v : adj_[u]) {
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
        // neighbors are its in-edges here because the adjacency of an
        // undirected network is symmetric.
        for (std::uint32_t w = 0; w < n; ++w) {
          if (seen[w] == all) continue;
          std::uint64_t reach = 0;
          for (const NodeId u : adj_[w])
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

Topology make_ring(ProcId p) {
  const NodeId n = std::max<NodeId>(p, 2);
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    adj[static_cast<std::size_t>(i)].push_back((i + 1) % n);
    adj[static_cast<std::size_t>(i)].push_back((i + n - 1) % n);
  }
  std::vector<NodeId> procs(static_cast<std::size_t>(n));
  std::iota(procs.begin(), procs.end(), 0);
  return Topology(TopologyKind::Ring, n, std::move(adj), std::move(procs));
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
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  // Torus links along each dimension.
  for (NodeId v = 0; v < n; ++v) {
    NodeId stride = 1;
    for (int d = 0; d < dims; ++d) {
      const NodeId coord = (v / stride) % side;
      const NodeId up = v + ((coord + 1) % side - coord) * stride;
      const NodeId down = v + ((coord + side - 1) % side - coord) * stride;
      adj[static_cast<std::size_t>(v)].push_back(up);
      adj[static_cast<std::size_t>(v)].push_back(down);
      stride *= side;
    }
  }
  std::vector<NodeId> procs(static_cast<std::size_t>(n));
  std::iota(procs.begin(), procs.end(), 0);
  return Topology(kind, n, std::move(adj), std::move(procs));
}

Topology make_hypercube(TopologyKind kind, ProcId p) {
  const int n = std::max(1, ceil_log2(std::max<ProcId>(p, 2)));
  const NodeId size = NodeId{1} << n;
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(size));
  for (NodeId v = 0; v < size; ++v)
    for (int k = 0; k < n; ++k)
      adj[static_cast<std::size_t>(v)].push_back(v ^ (NodeId{1} << k));
  std::vector<NodeId> procs(static_cast<std::size_t>(size));
  std::iota(procs.begin(), procs.end(), 0);
  return Topology(kind, size, std::move(adj), std::move(procs));
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
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(size));
  for (int level = 0; level < n; ++level) {
    const int next = (level + 1) % n;
    for (NodeId row = 0; row < rows; ++row) {
      const NodeId a = id(level, row);
      const NodeId straight = id(next, row);
      const NodeId cross = id(next, row ^ (NodeId{1} << level));
      adj[static_cast<std::size_t>(a)].push_back(straight);
      adj[static_cast<std::size_t>(straight)].push_back(a);
      adj[static_cast<std::size_t>(a)].push_back(cross);
      adj[static_cast<std::size_t>(cross)].push_back(a);
    }
  }
  std::vector<NodeId> procs(static_cast<std::size_t>(size));
  std::iota(procs.begin(), procs.end(), 0);
  return Topology(TopologyKind::Butterfly, size, std::move(adj),
                  std::move(procs));
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
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(size));
  for (NodeId w = 0; w < corners; ++w) {
    for (int l = 0; l < n; ++l) {
      const NodeId a = id(w, l);
      adj[static_cast<std::size_t>(a)].push_back(id(w, (l + 1) % n));
      adj[static_cast<std::size_t>(a)].push_back(id(w, (l + n - 1) % n));
      adj[static_cast<std::size_t>(a)].push_back(
          id(w ^ (NodeId{1} << l), l));
    }
  }
  std::vector<NodeId> procs(static_cast<std::size_t>(size));
  std::iota(procs.begin(), procs.end(), 0);
  return Topology(TopologyKind::CubeConnectedCycles, size, std::move(adj),
                  std::move(procs));
}

Topology make_shuffle_exchange(ProcId p) {
  const int n = std::max(2, ceil_log2(std::max<ProcId>(p, 4)));
  const NodeId size = NodeId{1} << n;
  const NodeId mask = size - 1;
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(size));
  for (NodeId v = 0; v < size; ++v) {
    auto& nb = adj[static_cast<std::size_t>(v)];
    nb.push_back(v ^ 1);                                  // exchange
    nb.push_back(((v << 1) | (v >> (n - 1))) & mask);     // shuffle
    // unshuffle (the shuffle edge seen from the other side)
    nb.push_back(((v >> 1) | ((v & 1) << (n - 1))) & mask);
  }
  std::vector<NodeId> procs(static_cast<std::size_t>(size));
  std::iota(procs.begin(), procs.end(), 0);
  return Topology(TopologyKind::ShuffleExchange, size, std::move(adj),
                  std::move(procs));
}

Topology make_mesh_of_trees(ProcId p) {
  // side x side grid of leaf processors; a complete binary tree over every
  // row and every column (internal nodes are routing-only).
  NodeId side = 2;
  while (side * side < p) side *= 2;  // power of two for clean trees
  const NodeId leaves = side * side;
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(leaves));
  auto leaf = [&](NodeId row, NodeId col) { return row * side + col; };
  auto new_node = [&]() {
    adj.emplace_back();
    return static_cast<NodeId>(adj.size() - 1);
  };
  auto connect = [&](NodeId a, NodeId b) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  };
  // Builds a binary tree whose leaf layer is `level`; returns nothing —
  // edges are added as internal nodes are allocated.
  auto build_tree = [&](std::vector<NodeId> level) {
    while (level.size() > 1) {
      std::vector<NodeId> up;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        const NodeId parent = new_node();
        connect(parent, level[i]);
        connect(parent, level[i + 1]);
        up.push_back(parent);
      }
      if (level.size() % 2 == 1) up.push_back(level.back());
      level = std::move(up);
    }
  };
  for (NodeId r = 0; r < side; ++r) {
    std::vector<NodeId> row;
    for (NodeId c = 0; c < side; ++c) row.push_back(leaf(r, c));
    build_tree(std::move(row));
  }
  for (NodeId c = 0; c < side; ++c) {
    std::vector<NodeId> col;
    for (NodeId r = 0; r < side; ++r) col.push_back(leaf(r, c));
    build_tree(std::move(col));
  }
  std::vector<NodeId> procs(static_cast<std::size_t>(leaves));
  std::iota(procs.begin(), procs.end(), 0);
  const auto size = static_cast<NodeId>(adj.size());
  return Topology(TopologyKind::MeshOfTrees, size, std::move(adj),
                  std::move(procs));
}

}  // namespace

Topology make_topology(TopologyKind kind, ProcId p_request) {
  BSPLOGP_EXPECTS(p_request >= 2);
  switch (kind) {
    case TopologyKind::Ring:
      return make_ring(p_request);
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
  return make_ring(p_request);
}

}  // namespace bsplogp::net
