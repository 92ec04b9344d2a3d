// Property tests for the decomposition library: every (scheme, shape,
// grid, block) draw must satisfy the three partitioning laws — local/global
// round-trip, ownership totality + disjointness, and extent sums matching
// the global shape. Randomized cases draw through core::rng_for_index so
// each case is a pure function of its index, like every sweep in the repo.
#include <vector>

#include <gtest/gtest.h>

#include "src/core/rng.h"
#include "src/part/partition.h"

namespace bsplogp::part {
namespace {

// Enumerates every global point of `shape` in row-major order.
std::vector<Point> all_points(const Point& shape) {
  std::vector<Point> pts;
  for (const Index n : shape)
    if (n == 0) return pts;  // an empty axis has no points
  Point cur(shape.size(), 0);
  for (;;) {
    pts.push_back(cur);
    std::size_t d = shape.size();
    while (d-- > 0) {
      if (++cur[d] < shape[d]) break;
      cur[d] = 0;
      if (d == 0) return pts;
    }
  }
}

void check_laws(const Partitioning& part) {
  const Point& shape = part.global_shape();
  const auto p = static_cast<ProcId>(part.grid().size());

  // Per-axis extents must sum to the axis' global extent.
  for (int d = 0; d < part.grid().ndims(); ++d) {
    const AxisPart& ax = part.axis(d);
    Index sum = 0;
    for (Index pos = 0; pos < ax.g; ++pos) {
      const Index e = ax.extent(pos);
      ASSERT_GE(e, 0);
      sum += e;
    }
    ASSERT_EQ(sum, ax.n) << "axis " << d;
  }

  // local_count over all processors must cover the global space once.
  Index global_count = 1;
  for (const Index n : shape) global_count *= n;
  Index total = 0;
  for (ProcId r = 0; r < p; ++r) total += part.local_count(r);
  ASSERT_EQ(total, global_count);

  // Round-trip + ownership totality: every global point maps to exactly
  // one (owner, local) pair, and to_global inverts it.
  std::vector<int> covered(static_cast<std::size_t>(global_count), 0);
  Index flat = 0;
  for (const Point& g : all_points(shape)) {
    const ProcId r = part.owner(g);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, p);
    const Point l = part.to_local(g);
    const Point& ls = part.local_shape(r);
    for (std::size_t d = 0; d < l.size(); ++d) {
      ASSERT_GE(l[d], 0);
      ASSERT_LT(l[d], ls[d]);
    }
    ASSERT_EQ(part.to_global(r, l), g);
    covered[static_cast<std::size_t>(flat++)] += 1;
  }

  // Disjointness: enumerating every processor's local space through
  // to_global hits each global point exactly once.
  for (ProcId r = 0; r < p; ++r) {
    for (const Point& l : all_points(part.local_shape(r))) {
      const Point g = part.to_global(r, l);
      ASSERT_EQ(part.owner(g), r);
      Index flat_g = 0;
      for (std::size_t d = 0; d < g.size(); ++d)
        flat_g = flat_g * shape[d] + g[d];
      covered[static_cast<std::size_t>(flat_g)] += 1;
    }
  }
  for (const int c : covered) ASSERT_EQ(c, 2);
}

TEST(Grid, RectangleFactorsNearSquare) {
  EXPECT_EQ(Grid::rectangle(12).dims(), (std::vector<Index>{3, 4}));
  EXPECT_EQ(Grid::rectangle(16).dims(), (std::vector<Index>{4, 4}));
  EXPECT_EQ(Grid::rectangle(7).dims(), (std::vector<Index>{1, 7}));
  EXPECT_EQ(Grid::rectangle(1).dims(), (std::vector<Index>{1, 1}));
  EXPECT_EQ(Grid::rectangle(12, 2).dims(), (std::vector<Index>{2, 6}));
}

TEST(Grid, RankCoordsRoundTrip) {
  const Grid g({3, 4, 2});
  ASSERT_EQ(g.size(), 24);
  for (ProcId r = 0; r < 24; ++r) EXPECT_EQ(g.rank(g.coords(r)), r);
  // Row-major: the last axis varies fastest.
  EXPECT_EQ(g.rank({0, 0, 1}), 1);
  EXPECT_EQ(g.rank({0, 1, 0}), 2);
  EXPECT_EQ(g.rank({1, 0, 0}), 8);
}

TEST(AxisPart, BlockExtentsMatchCeilDiv) {
  // 10 indices over 3 positions in blocks of ceil(10/3) = 4: 4, 4, 2.
  const AxisPart ax{10, 3, 4};
  EXPECT_EQ(ax.extent(0), 4);
  EXPECT_EQ(ax.extent(1), 4);
  EXPECT_EQ(ax.extent(2), 2);
  EXPECT_EQ(ax.owner(0), 0);
  EXPECT_EQ(ax.owner(7), 1);
  EXPECT_EQ(ax.owner(9), 2);
}

TEST(AxisPart, CyclicDealsRoundRobin) {
  const AxisPart ax{7, 3, 1};
  for (Index i = 0; i < 7; ++i) {
    EXPECT_EQ(ax.owner(i), i % 3);
    EXPECT_EQ(ax.to_local(i), i / 3);
  }
  EXPECT_EQ(ax.extent(0), 3);
  EXPECT_EQ(ax.extent(1), 2);
  EXPECT_EQ(ax.extent(2), 2);
}

TEST(Partitioning, LawsHoldOnHandPickedCases) {
  check_laws(Partitioning(Scheme::Block, {10}, Grid({3})));
  check_laws(Partitioning(Scheme::Cyclic, {10}, Grid({3})));
  check_laws(Partitioning(Scheme::BlockCyclic, {10}, Grid({3}), 2));
  check_laws(Partitioning(Scheme::Block, {7, 5}, Grid({2, 3})));
  check_laws(Partitioning(Scheme::Cyclic, {4, 4, 4}, Grid({2, 1, 2})));
  // Degenerate: more processors than indices (some extents are zero).
  check_laws(Partitioning(Scheme::Block, {2}, Grid({5})));
  check_laws(Partitioning(Scheme::BlockCyclic, {3, 2}, Grid({4, 3}), 2));
}

TEST(Partitioning, LawsHoldOnRandomDraws) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    core::Rng rng = core::rng_for_index(0x9a57, i);
    const int dims = static_cast<int>(rng.uniform(1, 3));
    Point shape;
    std::vector<Index> gdims;
    for (int d = 0; d < dims; ++d) {
      shape.push_back(rng.uniform(1, 12));
      gdims.push_back(rng.uniform(1, 4));
    }
    const auto scheme = static_cast<Scheme>(rng.uniform(0, 2));
    const Index block = rng.uniform(1, 3);
    check_laws(Partitioning(scheme, shape, Grid(gdims), block));
  }
}

}  // namespace
}  // namespace bsplogp::part
