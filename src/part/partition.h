// Multi-dimensional data decompositions over N-D index spaces.
//
// Application workloads (stencil meshes, sorted key ranges, BSF element
// pools) all answer the same three questions: which processor owns global
// index i, what is i's local index there, and how many indices does each
// processor hold? This library answers them for the three classic
// distributions — block, cyclic, and block-cyclic — applied independently
// per axis over a processor grid, in the style of Bulk's
// partitionings/partitioning.hpp. Block and cyclic are the b = ceil(n/g)
// and b = 1 special cases of block-cyclic, so one closed-form index
// calculation serves all three; no per-processor tables are built, and
// every query is O(dims).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/types.h"

namespace bsplogp::part {

/// A coordinate along one axis of a global index space, or a whole
/// multi-dimensional index when used as part::Point.
using Index = std::int64_t;
using Point = std::vector<Index>;

/// A d-dimensional processor grid: ranks 0..size()-1 laid out row-major
/// over dims(), so the last axis varies fastest (matching C array order
/// and the paper's 0..p-1 processor numbering).
class Grid {
 public:
  explicit Grid(std::vector<Index> dims);

  /// Rectangular grid over exactly `p` processors with `rows` rows; `rows`
  /// must divide p. rows == 0 picks the most nearly square factorization
  /// (largest divisor of p that is <= sqrt(p)).
  static Grid rectangle(ProcId p, Index rows = 0);

  [[nodiscard]] Index size() const { return size_; }
  [[nodiscard]] int ndims() const { return static_cast<int>(dims_.size()); }
  [[nodiscard]] const std::vector<Index>& dims() const { return dims_; }

  /// Row-major rank of grid coordinates `c` (one per axis, each in range).
  [[nodiscard]] ProcId rank(const Point& c) const;

  /// Inverse of rank().
  [[nodiscard]] Point coords(ProcId r) const;

 private:
  std::vector<Index> dims_;
  Index size_ = 1;
};

/// Which distribution a Partitioning applies along every axis.
enum class Scheme {
  Block,        // contiguous runs of ceil(n/g) indices per processor
  Cyclic,       // index i on processor i % g (block size 1)
  BlockCyclic,  // rounds of g blocks of a caller-chosen size b
};

[[nodiscard]] const char* scheme_name(Scheme s);

/// One axis of a distribution: n global indices dealt to g grid positions
/// in blocks of b. All of Block / Cyclic / BlockCyclic reduce to this with
/// the right b, so the closed forms below are the whole implementation.
struct AxisPart {
  Index n = 0;  // global extent
  Index g = 1;  // grid positions along this axis
  Index b = 1;  // block size

  /// Grid position owning global index i.
  [[nodiscard]] Index owner(Index i) const { return (i / b) % g; }

  /// Local index of global index i on its owner.
  [[nodiscard]] Index to_local(Index i) const {
    return (i / (b * g)) * b + i % b;
  }

  /// Global index of local index l on grid position part.
  [[nodiscard]] Index to_global(Index part, Index l) const {
    return (l / b) * b * g + part * b + l % b;
  }

  /// Number of global indices owned by grid position part.
  [[nodiscard]] Index extent(Index part) const {
    const Index full_cycles = n / (b * g);
    const Index rem = n % (b * g) - part * b;
    const Index partial = rem < 0 ? 0 : (rem < b ? rem : b);
    return full_cycles * b + partial;
  }
};

/// A Scheme applied independently along every axis of a global shape over
/// a processor grid of the same dimensionality. Immutable once built;
/// every query is a pure closed-form index calculation.
class Partitioning {
 public:
  /// `block` is the per-axis block size for Scheme::BlockCyclic and is
  /// ignored (derived) for Block and Cyclic. global_shape and grid must
  /// have the same number of axes, every global extent must be >= 1, and
  /// BlockCyclic requires block >= 1.
  Partitioning(Scheme scheme, Point global_shape, Grid grid,
               Index block = 1);

  [[nodiscard]] Scheme scheme() const { return scheme_; }
  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] const Point& global_shape() const { return shape_; }
  [[nodiscard]] const AxisPart& axis(int d) const {
    return axes_[static_cast<std::size_t>(d)];
  }

  /// Rank of the processor owning global point `g`.
  [[nodiscard]] ProcId owner(const Point& g) const;

  /// Local coordinates of global point `g` on its owner.
  [[nodiscard]] Point to_local(const Point& g) const;

  /// Global coordinates of local point `l` on processor `r`.
  [[nodiscard]] Point to_global(ProcId r, const Point& l) const;

  /// Per-axis extents of processor r's local block.
  [[nodiscard]] Point local_shape(ProcId r) const;

  /// Number of global indices owned by processor r (product of
  /// local_shape(r); zero when any axis extent is zero).
  [[nodiscard]] Index local_count(ProcId r) const;

 private:
  Scheme scheme_;
  Point shape_;
  Grid grid_;
  std::vector<AxisPart> axes_;
};

}  // namespace bsplogp::part
