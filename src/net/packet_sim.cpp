#include "src/net/packet_sim.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "src/core/contracts.h"

namespace bsplogp::net {

namespace {

/// A packet in flight; packet i of a route() call carries message i.
struct Packet {
  ProcId final_dst = 0;     // processor index
  ProcId via = -1;          // Valiant intermediate (-1: none/already passed)
  std::uint64_t salt = 0;   // tie-break diversifier
  std::int32_t next = -1;   // the packet behind this one in its link FIFO
};

/// One link's FIFO: an intrusive list through Packet::next. `len` marks
/// an empty queue (head and tail are then stale) and feeds
/// Result::max_queue.
struct Fifo {
  std::int32_t head = -1;
  std::int32_t tail = -1;
  std::int32_t len = 0;
};

/// Current routing target (processor index) of a packet.
ProcId target_of(const Packet& pk) {
  return pk.via >= 0 ? pk.via : pk.final_dst;
}

}  // namespace

PacketSim::PacketSim(Topology topology) : topo_(std::move(topology)) {
  BSPLOGP_EXPECTS(topo_.max_degree() <= kMaxDegree);
  const auto n = static_cast<std::size_t>(topo_.size());
  const std::span<const NodeId> arcs = topo_.arcs();
  link_from_.reserve(arcs.size());
  for (NodeId v = 0; v < topo_.size(); ++v)
    link_from_.insert(link_from_.end(), topo_.neighbors(v).size(), v);

  // One BFS per destination. When node u is dequeued, every neighbor one
  // level closer has its distance already, so the loop that discovers u's
  // new neighbors also completes u's mask: an undiscovered neighbor is one
  // level farther, and a discovered one is closer iff it sits at du - 1.
  // The source discovers all its neighbors, so its mask is 0.
  hop_mask_.resize(static_cast<std::size_t>(topo_.nprocs()) * n);
  std::vector<NodeId> dist(n);
  std::vector<NodeId> queue(n);
  for (std::size_t d = 0; d < topo_.processors().size(); ++d) {
    std::fill(dist.begin(), dist.end(), -1);
    const NodeId src = topo_.processors()[d];
    dist[static_cast<std::size_t>(src)] = 0;
    queue[0] = src;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const NodeId u = queue[head];
      const NodeId du = dist[static_cast<std::size_t>(u)];
      const auto base = static_cast<std::size_t>(topo_.first_arc(u));
      const auto end = static_cast<std::size_t>(topo_.first_arc(u + 1));
      std::uint32_t mask = 0;
      for (std::size_t l = base; l < end; ++l) {
        const NodeId w = arcs[l];
        const NodeId dw = dist[static_cast<std::size_t>(w)];
        if (dw < 0) {
          dist[static_cast<std::size_t>(w)] = du + 1;
          queue[tail++] = w;
        } else {
          mask |= std::uint32_t{dw == du - 1} << (l - base);
        }
      }
      hop_mask_[d * n + static_cast<std::size_t>(u)] = mask;
    }
    // Every node reached from the first source: the graph is connected.
    if (d == 0) BSPLOGP_EXPECTS(tail == n);
  }
}

std::size_t PacketSim::next_link(NodeId at, ProcId dst_proc,
                                 std::uint64_t salt) const {
  std::uint32_t mask =
      hop_mask_[static_cast<std::size_t>(dst_proc) *
                    static_cast<std::size_t>(topo_.size()) +
                static_cast<std::size_t>(at)];
  BSPLOGP_ASSERT(mask != 0);
  // All shortest-path links are admissible; pick the k-th in link order by
  // a salted hash so different packets spread across the equivalent links.
  // A lone candidate skips the hash, which would pick it anyway
  // (x % 1 == 0).
  if ((mask & (mask - 1)) != 0) {
    const auto candidates = static_cast<std::uint64_t>(std::popcount(mask));
    std::uint64_t mix = salt ^ (static_cast<std::uint64_t>(at) << 32) ^
                        static_cast<std::uint64_t>(dst_proc);
    for (std::uint64_t pick = core::splitmix64(mix) % candidates; pick > 0;
         --pick)
      mask &= mask - 1;  // drop the lowest candidate
  }
  return static_cast<std::size_t>(topo_.first_arc(at)) +
         static_cast<std::size_t>(std::countr_zero(mask));
}

PacketSim::Result PacketSim::route(const routing::HRelation& rel,
                                   Options opt) const {
  BSPLOGP_EXPECTS(rel.nprocs() == topo_.nprocs());
  core::Rng rng(opt.seed);
  Result result;
  result.packets = static_cast<std::int64_t>(rel.size());
  if (rel.size() == 0) return result;
  BSPLOGP_EXPECTS(std::cmp_less_equal(
      rel.size(), std::numeric_limits<std::int32_t>::max()));

  const std::span<const NodeId> link_to = topo_.arcs();
  const std::size_t nlinks = link_to.size();
  std::vector<Packet> pk(rel.size());
  std::vector<Fifo> fifo(nlinks);
  // Bit l is set iff link l's FIFO is nonempty.
  std::vector<std::uint64_t> active((nlinks + 63) / 64, 0);
  std::int64_t in_flight = 0;

  auto push = [&](std::size_t l, std::int32_t i) {
    Fifo& q = fifo[l];
    if (q.len++ == 0) {
      q.head = i;
      active[l / 64] |= std::uint64_t{1} << (l % 64);
    } else {
      pk[static_cast<std::size_t>(q.tail)].next = i;
    }
    q.tail = i;
    result.max_queue = std::max<std::int64_t>(result.max_queue, q.len);
  };
  auto pop = [&](std::size_t l) {
    Fifo& q = fifo[l];
    const std::int32_t i = q.head;
    q.head = pk[static_cast<std::size_t>(i)].next;
    if (--q.len == 0) active[l / 64] &= ~(std::uint64_t{1} << (l % 64));
    return i;
  };
  // The first link >= l whose FIFO is nonempty, or nlinks.
  auto next_active = [&](std::size_t l) {
    std::size_t w = l / 64;
    if (w >= active.size()) return nlinks;
    std::uint64_t bits = active[w] & (~std::uint64_t{0} << (l % 64));
    while (bits == 0) {
      if (++w == active.size()) return nlinks;
      bits = active[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  };

  // Enqueues packet i at node v (delivering it if v is its final node).
  auto place = [&](NodeId v, std::int32_t i) {
    Packet& p = pk[static_cast<std::size_t>(i)];
    for (;;) {
      const ProcId tgt = target_of(p);
      if (v == topo_.processors()[static_cast<std::size_t>(tgt)]) {
        if (p.via >= 0) {
          p.via = -1;  // phase 2 of Valiant: continue to the real target
          continue;
        }
        in_flight -= 1;  // delivered
        return;
      }
      push(next_link(v, tgt, p.salt), i);
      return;
    }
  };

  std::int32_t i = 0;
  for (const Message& m : rel.messages()) {
    Packet& p = pk[static_cast<std::size_t>(i)];
    p.final_dst = m.dst;
    p.salt = rng();
    if (opt.valiant) {
      p.via = static_cast<ProcId>(
          rng.below(static_cast<std::uint64_t>(topo_.nprocs())));
      if (p.via == m.dst) p.via = -1;
    }
    in_flight += 1;
    place(topo_.processors()[static_cast<std::size_t>(m.src)], i++);
  }

  // Synchronous steps: move one packet per link (multi-port) or one per
  // node (single-port), visiting links in ascending order. Transfers
  // within a step are staged so a packet moves at most one hop per step.
  std::vector<std::pair<NodeId, std::int32_t>> moved;
  std::vector<std::size_t> rotate(static_cast<std::size_t>(topo_.size()),
                                  0);  // single-port fairness
  while (in_flight > 0) {
    if (result.steps >= opt.max_steps) {
      result.timed_out = true;
      break;
    }
    result.steps += 1;
    moved.clear();
    if (topo_.single_port()) {
      // Send the head of one nonempty queue, round robin over links.
      for (std::size_t l = next_active(0); l < nlinks;) {
        const NodeId from = link_from_[l];
        const auto v = static_cast<std::size_t>(from);
        const auto base = static_cast<std::size_t>(topo_.first_arc(from));
        const auto end = static_cast<std::size_t>(topo_.first_arc(from + 1));
        const std::size_t deg = end - base;
        for (std::size_t probe = 0; probe < deg; ++probe) {
          const std::size_t k = (rotate[v] + probe) % deg;
          if (fifo[base + k].len > 0) {
            moved.emplace_back(link_to[base + k], pop(base + k));
            rotate[v] = (k + 1) % deg;
            break;
          }
        }
        l = next_active(end);
      }
    } else {
      // Pop the head of every nonempty queue. Each word is walked from a
      // copy: pop() clears only the bit being visited.
      for (std::size_t w = 0; w < active.size(); ++w)
        for (std::uint64_t bits = active[w]; bits != 0; bits &= bits - 1) {
          const std::size_t l =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          moved.emplace_back(link_to[l], pop(l));
        }
    }
    if (moved.empty()) break;  // nothing can move: impossible if in_flight>0
    for (const auto& [node, idx] : moved) {
      result.total_hops += 1;
      place(node, idx);
    }
  }
  BSPLOGP_ASSERT(result.timed_out || in_flight == 0);
  return result;
}

ParamFit fit_route_params(const PacketSim& sim, std::span<const Time> hs,
                          int trials, std::uint64_t seed,
                          PacketSim::Options opt) {
  BSPLOGP_EXPECTS(hs.size() >= 2);
  BSPLOGP_EXPECTS(trials >= 1);
  core::Rng rng(seed);
  ParamFit out;
  std::vector<double> xs, ys;
  for (const Time h : hs) {
    double total = 0;
    for (int t = 0; t < trials; ++t) {
      const auto rel =
          routing::random_regular(sim.topology().nprocs(), h, rng);
      PacketSim::Options o = opt;
      o.seed = rng();
      const auto res = sim.route(rel, o);
      BSPLOGP_EXPECTS(!res.timed_out);
      total += static_cast<double>(res.steps);
    }
    const double mean = total / trials;
    out.samples.emplace_back(h, mean);
    xs.push_back(static_cast<double>(h));
    ys.push_back(mean);
  }
  out.fit = core::fit_linear(xs, ys);
  return out;
}

}  // namespace bsplogp::net
