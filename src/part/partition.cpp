#include "src/part/partition.h"

#include <utility>

#include "src/core/contracts.h"

namespace bsplogp::part {

Grid::Grid(std::vector<Index> dims) : dims_(std::move(dims)) {
  BSPLOGP_EXPECTS(!dims_.empty());
  for (const Index d : dims_) {
    BSPLOGP_EXPECTS(d >= 1);
    size_ *= d;
  }
}

Grid Grid::rectangle(ProcId p, Index rows) {
  BSPLOGP_EXPECTS(p >= 1);
  if (rows == 0) {
    for (Index r = 1; r * r <= p; ++r) {
      if (p % r == 0) rows = r;
    }
  }
  BSPLOGP_EXPECTS(rows >= 1 && p % rows == 0);
  return Grid({rows, p / rows});
}

ProcId Grid::rank(const Point& c) const {
  BSPLOGP_EXPECTS(c.size() == dims_.size());
  Index r = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    BSPLOGP_EXPECTS(c[d] >= 0 && c[d] < dims_[d]);
    r = r * dims_[d] + c[d];
  }
  return static_cast<ProcId>(r);
}

Point Grid::coords(ProcId r) const {
  BSPLOGP_EXPECTS(r >= 0 && r < size_);
  Point c(dims_.size());
  Index rest = r;
  for (std::size_t d = dims_.size(); d-- > 0;) {
    c[d] = rest % dims_[d];
    rest /= dims_[d];
  }
  return c;
}

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::Block:
      return "block";
    case Scheme::Cyclic:
      return "cyclic";
    case Scheme::BlockCyclic:
      return "block-cyclic";
  }
  return "?";
}

Partitioning::Partitioning(Scheme scheme, Point global_shape, Grid grid,
                           Index block)
    : scheme_(scheme), shape_(std::move(global_shape)), grid_(std::move(grid)) {
  BSPLOGP_EXPECTS(static_cast<int>(shape_.size()) == grid_.ndims());
  BSPLOGP_EXPECTS(block >= 1);
  axes_.reserve(shape_.size());
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    const Index n = shape_[d];
    const Index g = grid_.dims()[d];
    BSPLOGP_EXPECTS(n >= 1);
    Index b = block;
    if (scheme == Scheme::Block) b = ceil_div(n, g);
    if (scheme == Scheme::Cyclic) b = 1;
    axes_.push_back(AxisPart{n, g, b});
  }
}

ProcId Partitioning::owner(const Point& g) const {
  BSPLOGP_EXPECTS(g.size() == shape_.size());
  Point c(g.size());
  for (std::size_t d = 0; d < g.size(); ++d) {
    BSPLOGP_EXPECTS(g[d] >= 0 && g[d] < shape_[d]);
    c[d] = axes_[d].owner(g[d]);
  }
  return grid_.rank(c);
}

Point Partitioning::to_local(const Point& g) const {
  BSPLOGP_EXPECTS(g.size() == shape_.size());
  Point l(g.size());
  for (std::size_t d = 0; d < g.size(); ++d) {
    BSPLOGP_EXPECTS(g[d] >= 0 && g[d] < shape_[d]);
    l[d] = axes_[d].to_local(g[d]);
  }
  return l;
}

Point Partitioning::to_global(ProcId r, const Point& l) const {
  BSPLOGP_EXPECTS(l.size() == shape_.size());
  const Point c = grid_.coords(r);
  Point g(l.size());
  for (std::size_t d = 0; d < l.size(); ++d) {
    BSPLOGP_EXPECTS(l[d] >= 0 && l[d] < axes_[d].extent(c[d]));
    g[d] = axes_[d].to_global(c[d], l[d]);
  }
  return g;
}

Point Partitioning::local_shape(ProcId r) const {
  const Point c = grid_.coords(r);
  Point s(shape_.size());
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    s[d] = axes_[d].extent(c[d]);
  }
  return s;
}

Index Partitioning::local_count(ProcId r) const {
  Index total = 1;
  for (const Index e : local_shape(r)) total *= e;
  return total;
}

}  // namespace bsplogp::part
