// h-relations: the communication currency of both models (paper, Sections
// 2.1 and 4.2). An h-relation is a set of point-to-point messages in which
// every processor sends at most h and receives at most h messages; h is the
// degree. This header provides the container, degree computation, and the
// workload generators used by the simulations, tests, and benchmarks.
#pragma once

#include <vector>

#include "src/core/rng.h"
#include "src/core/types.h"

namespace bsplogp::routing {

class HRelation {
 public:
  explicit HRelation(ProcId p) : p_(p) {}
  HRelation(ProcId p, std::vector<Message> messages);

  [[nodiscard]] ProcId nprocs() const { return p_; }
  [[nodiscard]] const std::vector<Message>& messages() const {
    return messages_;
  }
  [[nodiscard]] std::size_t size() const { return messages_.size(); }

  void add(ProcId src, ProcId dst, Word payload = 0, std::int32_t tag = 0);
  /// Room for `n` messages, so a generator that knows its size writes each
  /// message once.
  void reserve(std::size_t n) { messages_.reserve(n); }

  /// Messages sent by / destined to each processor.
  [[nodiscard]] std::vector<Time> out_degrees() const;
  [[nodiscard]] std::vector<Time> in_degrees() const;
  /// max send degree (r in the paper's Section 4.2).
  [[nodiscard]] Time max_out_degree() const;
  /// max receive degree (s in the paper's Section 4.2).
  [[nodiscard]] Time max_in_degree() const;
  /// h = max(r, s).
  [[nodiscard]] Time degree() const;

 private:
  ProcId p_;
  std::vector<Message> messages_;
};

/// m messages with independently uniform sources and destinations
/// (src != dst). Expected degree ~ m/p + O(sqrt(m/p log p)).
[[nodiscard]] HRelation random_messages(ProcId p, std::int64_t m,
                                        core::Rng& rng);

/// An exactly-h-regular relation: the union of h random permutations with
/// fixed points removed by swaps, so every processor sends exactly h and
/// receives exactly h messages.
[[nodiscard]] HRelation random_regular(ProcId p, Time h, core::Rng& rng);

/// A single random partial permutation (a 1-relation) over a fraction of
/// the processors.
[[nodiscard]] HRelation random_permutation(ProcId p, core::Rng& rng,
                                           double fill = 1.0);

/// All-to-one: every other processor sends k messages to `target` — the
/// Section 2.2 hot-spot workload.
[[nodiscard]] HRelation hotspot(ProcId p, ProcId target, Time k);

}  // namespace bsplogp::routing
