#include "src/routing/h_relation.h"

#include <algorithm>
#include <numeric>

#include "src/core/contracts.h"

namespace bsplogp::routing {

HRelation::HRelation(ProcId p, std::vector<Message> messages)
    : p_(p), messages_(std::move(messages)) {
  BSPLOGP_EXPECTS(p >= 1);
  for (const Message& m : messages_) {
    BSPLOGP_EXPECTS(m.src >= 0 && m.src < p_);
    BSPLOGP_EXPECTS(m.dst >= 0 && m.dst < p_);
  }
}

void HRelation::add(ProcId src, ProcId dst, Word payload, std::int32_t tag) {
  BSPLOGP_EXPECTS(src >= 0 && src < p_);
  BSPLOGP_EXPECTS(dst >= 0 && dst < p_);
  messages_.push_back(Message{src, dst, payload, tag});
}

std::vector<Time> HRelation::out_degrees() const {
  std::vector<Time> deg(static_cast<std::size_t>(p_), 0);
  for (const Message& m : messages_) deg[static_cast<std::size_t>(m.src)] += 1;
  return deg;
}

std::vector<Time> HRelation::in_degrees() const {
  std::vector<Time> deg(static_cast<std::size_t>(p_), 0);
  for (const Message& m : messages_) deg[static_cast<std::size_t>(m.dst)] += 1;
  return deg;
}

Time HRelation::max_out_degree() const {
  const auto deg = out_degrees();
  return deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
}

Time HRelation::max_in_degree() const {
  const auto deg = in_degrees();
  return deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
}

Time HRelation::degree() const {
  return std::max(max_out_degree(), max_in_degree());
}

HRelation random_messages(ProcId p, std::int64_t m, core::Rng& rng) {
  BSPLOGP_EXPECTS(p >= 2);
  HRelation rel(p);
  for (std::int64_t i = 0; i < m; ++i) {
    const auto src = static_cast<ProcId>(rng.below(
        static_cast<std::uint64_t>(p)));
    auto dst = static_cast<ProcId>(rng.below(
        static_cast<std::uint64_t>(p - 1)));
    if (dst >= src) ++dst;  // uniform over the p-1 other processors
    rel.add(src, dst, static_cast<Word>(i));
  }
  return rel;
}

namespace {

/// Fills `perm` with a random permutation of 0..p-1 with no fixed points
/// (fixed points are repaired by swapping with a neighbor, preserving
/// permutation-ness). `perm` is the caller's buffer, so a caller that
/// draws many rounds allocates it once.
void random_derangement(ProcId p, core::Rng& rng, std::vector<ProcId>& perm) {
  perm.resize(static_cast<std::size_t>(p));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (ProcId i = 0; i < p; ++i) {
    if (perm[static_cast<std::size_t>(i)] == i) {
      const ProcId j = (i + 1) % p;
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
    }
  }
}

}  // namespace

HRelation random_regular(ProcId p, Time h, core::Rng& rng) {
  BSPLOGP_EXPECTS(p >= 2);
  BSPLOGP_EXPECTS(h >= 0);
  HRelation rel(p);
  rel.reserve(static_cast<std::size_t>(p) * static_cast<std::size_t>(h));
  std::vector<ProcId> perm;
  for (Time round = 0; round < h; ++round) {
    random_derangement(p, rng, perm);
    for (ProcId i = 0; i < p; ++i)
      rel.add(i, perm[static_cast<std::size_t>(i)], round * p + i);
  }
  return rel;
}

HRelation random_permutation(ProcId p, core::Rng& rng, double fill) {
  BSPLOGP_EXPECTS(p >= 2);
  BSPLOGP_EXPECTS(fill >= 0.0 && fill <= 1.0);
  HRelation rel(p);
  std::vector<ProcId> perm;
  random_derangement(p, rng, perm);
  for (ProcId i = 0; i < p; ++i)
    if (rng.uniform01() < fill)
      rel.add(i, perm[static_cast<std::size_t>(i)], i);
  return rel;
}

HRelation hotspot(ProcId p, ProcId target, Time k) {
  BSPLOGP_EXPECTS(p >= 2);
  BSPLOGP_EXPECTS(target >= 0 && target < p);
  HRelation rel(p);
  for (ProcId i = 0; i < p; ++i)
    if (i != target)
      for (Time j = 0; j < k; ++j) rel.add(i, target, j);
  return rel;
}

}  // namespace bsplogp::routing
