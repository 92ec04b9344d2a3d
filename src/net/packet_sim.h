// Synchronous store-and-forward packet simulator: the "real machine" for
// Section 5. Each step, every link transmits one packet (multi-port
// semantics) or every node transmits one packet over one of its links
// (single-port, the Table-1 distinction for the hypercube). Packets follow
// shortest-path next-hops with deterministic, load-spreading tie-breaks;
// Valiant two-phase routing (random intermediate processor) is available
// to flatten adversarial patterns.
//
// The paper's Section-5 claim is measured on top of this: routing a random
// h-relation costs T(h) ~ gamma(p)*h + delta(p), and fitting that line
// yields the empirical bandwidth/latency parameters per topology.
#pragma once

#include <span>
#include <vector>

#include "src/core/rng.h"
#include "src/core/stats.h"
#include "src/core/types.h"
#include "src/net/topology.h"
#include "src/routing/h_relation.h"

namespace bsplogp::net {

class PacketSim {
 public:
  struct Options {
    /// Route via a uniformly random intermediate processor first.
    bool valiant = false;
    std::uint64_t seed = 1;
    Time max_steps = 10'000'000;
  };

  /// The widest node a next-hop mask can describe: one bit per link.
  static constexpr NodeId kMaxDegree = 32;

  /// Takes the topology's arcs as its directed links (link l is arc l) and
  /// precomputes, by one BFS from every processor node, which links of each
  /// node lead one hop closer to that processor. The topology is copied, so
  /// the simulator owns its world. Requires a connected topology with
  /// max_degree() <= kMaxDegree.
  explicit PacketSim(Topology topology);

  struct Result {
    /// Steps until the last packet was delivered.
    Time steps = 0;
    std::int64_t packets = 0;
    std::int64_t total_hops = 0;
    /// High-water mark of any single link queue.
    std::int64_t max_queue = 0;
    bool timed_out = false;
  };

  /// Routes all messages of `rel` (injected at step 0) to completion.
  [[nodiscard]] Result route(const routing::HRelation& rel,
                             Options opt) const;

  [[nodiscard]] const Topology& topology() const { return topo_; }

 private:
  /// The link a packet at `at` bound for processor `dst_proc` takes next.
  [[nodiscard]] std::size_t next_link(NodeId at, ProcId dst_proc,
                                      std::uint64_t salt) const;

  Topology topo_;
  /// link_from_[l]: the node link l leaves, for the single-port step.
  std::vector<NodeId> link_from_;
  /// hop_mask_[d * size + v]: bit k is set iff link topo_.first_arc(v) + k
  /// leads one hop closer to processor d's node (0 at that node itself).
  std::vector<std::uint32_t> hop_mask_;
};

/// Sweeps h over `hs`, routing `trials` random h-regular relations per
/// point, and fits  T(h) = gamma_hat * h + delta_hat.
struct ParamFit {
  core::LinearFit fit;
  /// (h, mean steps) samples behind the fit.
  std::vector<std::pair<Time, double>> samples;
  [[nodiscard]] double gamma_hat() const { return fit.slope; }
  [[nodiscard]] double delta_hat() const { return fit.intercept; }
};

[[nodiscard]] ParamFit fit_route_params(const PacketSim& sim,
                                        std::span<const Time> hs, int trials,
                                        std::uint64_t seed,
                                        PacketSim::Options opt = {});

}  // namespace bsplogp::net
