#include "src/workload/apps.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algo/mailbox.h"
#include "src/core/contracts.h"
#include "src/core/rng.h"

namespace bsplogp::workload {
namespace {

using part::Grid;
using part::Index;
using part::Partitioning;
using part::Point;
using part::Scheme;

// ---- Deterministic value derivation ----------------------------------------

[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  std::uint64_t s = x;
  return core::splitmix64(s);
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// n log n-ish deterministic work charge for sorting m keys.
[[nodiscard]] Time sort_cost(std::size_t m) {
  return static_cast<Time>(m) *
         ceil_log2(static_cast<std::int64_t>(m) + 1);
}

/// Rejects out-of-domain specs with the registry's domain message; the
/// factories throw rather than abort so the harness can report and exit.
void require_valid(const char* family, const Spec& s) {
  const Entry* e = find(family);
  BSPLOGP_EXPECTS(e != nullptr);
  std::string error;
  if (!validate(*e, s, &error)) throw std::invalid_argument(error);
}

void capture(std::vector<Word>* result, ProcId me, std::uint64_t h) {
  if (result != nullptr) (*result)[static_cast<std::size_t>(me)] =
      static_cast<Word>(h);
}

// ============================================================================
// stencil-2d
// ============================================================================

/// A local cell's view of one neighbour.
struct NbRef {
  std::int8_t kind = 0;  // 0 = outside the mesh (contributes 0),
                         // 1 = local (v = local cell index),
                         // 2 = halo (v = global cell id)
  std::int64_t v = 0;
};

struct StencilPlan {
  std::vector<std::int64_t> cell_ids;  // global ids, local row-major order
  std::vector<Word> init;
  std::vector<std::array<NbRef, 4>> nbs;
  /// Boundary cells each other processor needs: (dst, local indices).
  std::vector<std::pair<ProcId, std::vector<std::size_t>>> sends;
  std::int64_t recv_count = 0;  // distinct remote cells needed per iteration
};

struct StencilSetup {
  ProcId p = 0;
  std::int64_t nx = 0, ny = 0;
  int rounds = 0;
  std::vector<StencilPlan> procs;
};

[[nodiscard]] Word cell_init(std::uint64_t seed, std::int64_t id) {
  return static_cast<Word>(
      mix(seed ^ (0x57E2C1ULL << 32) ^ static_cast<std::uint64_t>(id)) & 0xFF);
}

// The builders allocate per processor, never per cell, key or element:
// the element loops use the per-axis closed forms (part::AxisPart), since
// every N-D Partitioning query returns a heap Point. AppAlloc pins this.

[[nodiscard]] std::shared_ptr<const StencilSetup> build_stencil(
    const Spec& s) {
  require_valid("stencil-2d", s);
  const Partitioning pt(Scheme::Block, {s.nx, s.ny}, app_grid(s));
  const part::AxisPart& ax = pt.axis(0);
  const part::AxisPart& ay = pt.axis(1);
  auto su = std::make_shared<StencilSetup>();
  su->p = s.p;
  su->nx = s.nx;
  su->ny = s.ny;
  su->rounds = s.rounds;
  su->procs.resize(static_cast<std::size_t>(s.p));
  constexpr std::array<std::array<Index, 2>, 4> kDirs{
      {{-1, 0}, {1, 0}, {0, -1}, {0, 1}}};
  for (ProcId r = 0; r < s.p; ++r) {
    StencilPlan& plan = su->procs[static_cast<std::size_t>(r)];
    const Point c = pt.grid().coords(r);
    const Index wx = ax.extent(c[0]);
    const Index wy = ay.extent(c[1]);
    const auto cells = static_cast<std::size_t>(wx * wy);
    plan.cell_ids.reserve(cells);
    plan.init.reserve(cells);
    plan.nbs.reserve(cells);
    std::vector<std::pair<ProcId, std::size_t>> sends;  // (dst, local index)
    std::vector<std::int64_t> halo_ids;
    for (Index lx = 0; lx < wx; ++lx)
      for (Index ly = 0; ly < wy; ++ly) {
        const Index gx = ax.to_global(c[0], lx);
        const Index gy = ay.to_global(c[1], ly);
        const std::int64_t id = gx * s.ny + gy;
        const std::size_t idx = plan.cell_ids.size();
        plan.cell_ids.push_back(id);
        plan.init.push_back(cell_init(s.seed, id));
        std::array<NbRef, 4> refs;
        for (std::size_t d = 0; d < 4; ++d) {
          const Index ngx = gx + kDirs[d][0];
          const Index ngy = gy + kDirs[d][1];
          if (ngx < 0 || ngx >= s.nx || ngy < 0 || ngy >= s.ny) {
            refs[d] = NbRef{0, 0};
            continue;
          }
          // The owner's row-major rank over the rows x cols grid.
          const auto o =
              static_cast<ProcId>(ax.owner(ngx) * ay.g + ay.owner(ngy));
          if (o == r) {
            refs[d] = NbRef{1, ax.to_local(ngx) * wy + ay.to_local(ngy)};
          } else {
            // I need their cell (receive) and, symmetrically, they need
            // mine: the 4-neighbourhood relation is its own inverse.
            refs[d] = NbRef{2, ngx * s.ny + ngy};
            halo_ids.push_back(ngx * s.ny + ngy);
            sends.emplace_back(o, idx);
          }
        }
        plan.nbs.push_back(refs);
      }
    std::sort(halo_ids.begin(), halo_ids.end());
    plan.recv_count =
        std::unique(halo_ids.begin(), halo_ids.end()) - halo_ids.begin();
    // Ascending (destination, cell): the order every send loop follows.
    std::sort(sends.begin(), sends.end());
    sends.erase(std::unique(sends.begin(), sends.end()), sends.end());
    for (const auto& [dst, idx] : sends) {
      if (plan.sends.empty() || plan.sends.back().first != dst)
        plan.sends.emplace_back(dst, std::vector<std::size_t>{});
      plan.sends.back().second.push_back(idx);
    }
  }
  return su;
}

[[nodiscard]] Word stencil_new_value(
    const std::vector<Word>& values, const std::array<NbRef, 4>& nbs,
    const std::unordered_map<std::int64_t, Word>& halo, std::size_t idx) {
  Word sum = 4 * values[idx];
  for (const NbRef& nb : nbs) {
    if (nb.kind == 1) sum += values[static_cast<std::size_t>(nb.v)];
    if (nb.kind == 2) sum += halo.at(nb.v);
  }
  return sum >> 3;
}

[[nodiscard]] std::uint64_t stencil_hash(const std::vector<Word>& values,
                                         const std::vector<Word>& rhist) {
  std::uint64_t h = fold(kFnvBasis, values.size());
  for (const Word v : values) h = fold(h, static_cast<std::uint64_t>(v));
  for (const Word r : rhist) h = fold(h, static_cast<std::uint64_t>(r));
  return h;
}

// BSP tags: cell ids are >= 0, control traffic is negative.
constexpr std::int32_t kStResid = -1;
constexpr std::int32_t kStGlobal = -2;

/// Two supersteps per iteration t: even 2t = exchange (halo sends; the
/// master also folds the previous iteration's residuals and broadcasts),
/// odd 2t+1 = update (apply stencil, accumulate residual, workers send it
/// to the master). Tail: even 2T broadcasts R_{T-1}, odd 2T+1 records it.
class StencilBspProgram final : public bsp::ProcProgram {
 public:
  StencilBspProgram(std::shared_ptr<const StencilSetup> su, ProcId me,
                    std::vector<Word>* result)
      : su_(std::move(su)),
        me_(me),
        result_(result),
        values_(su_->procs[static_cast<std::size_t>(me)].init) {}

  bool step(bsp::Ctx& c) override {
    // Once halted, stay halted: bsp::Machine never re-steps a finished
    // program, but xsim::BspOnLogp keeps stepping everyone until the
    // global OR of continue flags clears, so step() must be idempotent
    // after the final capture.
    if (halted_) return false;
    const StencilPlan& plan = su_->procs[static_cast<std::size_t>(me_)];
    const std::int64_t t = c.superstep() / 2;
    const std::int64_t T = su_->rounds;
    if (c.superstep() % 2 == 0) {  // exchange phase
      if (me_ == 0 && t >= 1) {
        Word r = own_resid_;
        for (const Message& m : c.inbox())
          if (m.tag == kStResid) r += m.payload;
        rhist_.push_back(r);
        for (ProcId w = 1; w < c.nprocs(); ++w) c.send(w, r, kStGlobal);
      }
      if (t == T) {
        if (me_ == 0) {
          capture(result_, me_, stencil_hash(values_, rhist_));
          halted_ = true;
          return false;
        }
        return true;  // workers wait for the final broadcast
      }
      for (const auto& [dst, cells] : plan.sends)
        for (const std::size_t ci : cells)
          c.send(dst, values_[ci],
                 static_cast<std::int32_t>(plan.cell_ids[ci]));
      return true;
    }
    // update phase
    halo_.clear();
    for (const Message& m : c.inbox()) {
      if (m.tag >= 0) halo_[m.tag] = m.payload;
      else if (m.tag == kStGlobal) rhist_.push_back(m.payload);
    }
    if (t == T) {  // workers' final step: R_{T-1} recorded above
      capture(result_, me_, stencil_hash(values_, rhist_));
      halted_ = true;
      return false;
    }
    std::vector<Word> next(values_.size());
    Word resid = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      next[i] = stencil_new_value(values_, plan.nbs[i], halo_, i);
      resid += next[i] > values_[i] ? next[i] - values_[i]
                                    : values_[i] - next[i];
    }
    values_ = std::move(next);
    c.charge(5 * static_cast<Time>(values_.size()));
    if (me_ == 0) own_resid_ = resid;
    else c.send(0, resid, kStResid);
    return true;
  }

 private:
  std::shared_ptr<const StencilSetup> su_;
  ProcId me_;
  std::vector<Word>* result_;
  std::vector<Word> values_;
  std::unordered_map<std::int64_t, Word> halo_;
  std::vector<Word> rhist_;
  Word own_resid_ = 0;
  bool halted_ = false;
};

// LogP tags: iteration-scoped so reordered deliveries can never cross
// iterations (the Mailbox stashes early arrivals). Cell ids ride in aux.
[[nodiscard]] constexpr std::int32_t st_halo(std::int64_t t) {
  return static_cast<std::int32_t>(t * 4 + 1);
}
[[nodiscard]] constexpr std::int32_t st_resid(std::int64_t t) {
  return static_cast<std::int32_t>(t * 4 + 2);
}
[[nodiscard]] constexpr std::int32_t st_global(std::int64_t t) {
  return static_cast<std::int32_t>(t * 4 + 3);
}

[[nodiscard]] logp::Task<Message> recv_tag(algo::Mailbox& mb,
                                           std::int32_t tag) {
  return mb.recv_match([tag](const Message& m) { return m.tag == tag; });
}

}  // namespace

part::Grid app_grid(const Spec& s) {
  return part::Grid::rectangle(s.p, s.grid_rows);
}

std::vector<logp::ProgramFn> stencil2d_logp(const Spec& s) {
  auto su = build_stencil(s);
  if (s.result != nullptr) s.result->assign(static_cast<std::size_t>(s.p), 0);
  std::vector<logp::ProgramFn> progs;
  progs.reserve(static_cast<std::size_t>(s.p));
  for (ProcId i = 0; i < s.p; ++i)
    progs.emplace_back([su, i, result = s.result,
                        p = s.p](logp::Proc& pr) -> logp::Task<> {
      algo::Mailbox mb(pr);
      const StencilPlan& plan = su->procs[static_cast<std::size_t>(i)];
      std::vector<Word> values = plan.init;
      std::unordered_map<std::int64_t, Word> halo;
      std::vector<Word> rhist;
      for (std::int64_t t = 0; t < su->rounds; ++t) {
        for (const auto& [dst, cells] : plan.sends)
          for (const std::size_t ci : cells)
            co_await pr.send(dst, values[ci], st_halo(t), plan.cell_ids[ci]);
        halo.clear();
        for (std::int64_t k = 0; k < plan.recv_count; ++k) {
          const Message m = co_await recv_tag(mb, st_halo(t));
          halo[m.aux] = m.payload;
        }
        std::vector<Word> next(values.size());
        Word resid = 0;
        for (std::size_t c = 0; c < values.size(); ++c) {
          next[c] = stencil_new_value(values, plan.nbs[c], halo, c);
          resid += next[c] > values[c] ? next[c] - values[c]
                                       : values[c] - next[c];
        }
        values = std::move(next);
        co_await pr.compute(5 * static_cast<Time>(values.size()));
        if (i == 0) {
          Word r = resid;
          for (ProcId w = 1; w < p; ++w)
            r += (co_await recv_tag(mb, st_resid(t))).payload;
          rhist.push_back(r);
          for (ProcId w = 1; w < p; ++w)
            co_await pr.send(w, r, st_global(t));
        } else {
          co_await pr.send(0, resid, st_resid(t));
          rhist.push_back((co_await recv_tag(mb, st_global(t))).payload);
        }
      }
      capture(result, i, stencil_hash(values, rhist));
    });
  return progs;
}

std::vector<std::unique_ptr<bsp::ProcProgram>> stencil2d_bsp(const Spec& s) {
  auto su = build_stencil(s);
  if (s.result != nullptr) s.result->assign(static_cast<std::size_t>(s.p), 0);
  std::vector<std::unique_ptr<bsp::ProcProgram>> progs;
  progs.reserve(static_cast<std::size_t>(s.p));
  for (ProcId i = 0; i < s.p; ++i)
    progs.push_back(std::make_unique<StencilBspProgram>(su, i, s.result));
  return progs;
}

std::vector<Word> stencil2d_expected(const Spec& s) {
  auto su = build_stencil(s);
  std::vector<Word> grid(static_cast<std::size_t>(s.nx * s.ny));
  for (std::int64_t id = 0; id < s.nx * s.ny; ++id)
    grid[static_cast<std::size_t>(id)] = cell_init(s.seed, id);
  std::vector<Word> rhist;
  for (int t = 0; t < s.rounds; ++t) {
    std::vector<Word> next(grid.size());
    Word resid = 0;
    for (std::int64_t gx = 0; gx < s.nx; ++gx)
      for (std::int64_t gy = 0; gy < s.ny; ++gy) {
        const std::int64_t id = gx * s.ny + gy;
        Word sum = 4 * grid[static_cast<std::size_t>(id)];
        if (gx > 0) sum += grid[static_cast<std::size_t>(id - s.ny)];
        if (gx + 1 < s.nx) sum += grid[static_cast<std::size_t>(id + s.ny)];
        if (gy > 0) sum += grid[static_cast<std::size_t>(id - 1)];
        if (gy + 1 < s.ny) sum += grid[static_cast<std::size_t>(id + 1)];
        next[static_cast<std::size_t>(id)] = sum >> 3;
        const Word d = next[static_cast<std::size_t>(id)] -
                       grid[static_cast<std::size_t>(id)];
        resid += d < 0 ? -d : d;
      }
    grid = std::move(next);
    rhist.push_back(resid);
  }
  std::vector<Word> out(static_cast<std::size_t>(s.p));
  for (ProcId r = 0; r < s.p; ++r) {
    const StencilPlan& plan = su->procs[static_cast<std::size_t>(r)];
    std::vector<Word> values;
    values.reserve(plan.cell_ids.size());
    for (const std::int64_t id : plan.cell_ids)
      values.push_back(grid[static_cast<std::size_t>(id)]);
    out[static_cast<std::size_t>(r)] =
        static_cast<Word>(stencil_hash(values, rhist));
  }
  return out;
}

// ============================================================================
// sample-sort
// ============================================================================

namespace {

struct SortSetup {
  ProcId p = 0;
  /// Owned keys per processor, block-cyclic (block 4) deal order.
  std::vector<std::vector<Word>> keys;
};

[[nodiscard]] Word key_value(std::uint64_t seed, Index g) {
  return static_cast<Word>(
      mix(seed ^ (0x5A9B7EULL << 32) ^ static_cast<std::uint64_t>(g)) &
      0xFFFFF);
}

constexpr Index kSortBlock = 4;

[[nodiscard]] std::shared_ptr<const SortSetup> build_sort(const Spec& s) {
  require_valid("sample-sort", s);
  const Partitioning pt(Scheme::BlockCyclic, {s.nx},
                        Grid({static_cast<Index>(s.p)}), kSortBlock);
  const part::AxisPart& ax = pt.axis(0);  // a 1-D grid: coordinate == rank
  auto su = std::make_shared<SortSetup>();
  su->p = s.p;
  su->keys.resize(static_cast<std::size_t>(s.p));
  for (ProcId r = 0; r < s.p; ++r) {
    const Index count = ax.extent(r);
    auto& mine = su->keys[static_cast<std::size_t>(r)];
    mine.reserve(static_cast<std::size_t>(count));
    for (Index l = 0; l < count; ++l)
      mine.push_back(key_value(s.seed, ax.to_global(r, l)));
  }
  return su;
}

/// p regular samples of a sorted run (positions floor(j*len/p)); len >= 4
/// is guaranteed by the nx >= 4p domain constraint.
[[nodiscard]] std::vector<Word> regular_samples(const std::vector<Word>& run,
                                                ProcId p) {
  std::vector<Word> out;
  out.reserve(static_cast<std::size_t>(p));
  for (ProcId j = 0; j < p; ++j)
    out.push_back(run[static_cast<std::size_t>(j) * run.size() /
                      static_cast<std::size_t>(p)]);
  return out;
}

/// The p-1 splitters of the sorted p*p sample pool.
[[nodiscard]] std::vector<Word> pick_splitters(std::vector<Word> pool,
                                               ProcId p) {
  std::sort(pool.begin(), pool.end());
  std::vector<Word> out;
  out.reserve(static_cast<std::size_t>(p) - 1);
  for (ProcId j = 0; j + 1 < p; ++j)
    out.push_back(pool[static_cast<std::size_t>(j + 1) *
                       static_cast<std::size_t>(p)]);
  return out;
}

/// Destination bucket (== destination processor) of a key.
[[nodiscard]] ProcId bucket_of(const std::vector<Word>& splitters, Word key) {
  return static_cast<ProcId>(
      std::upper_bound(splitters.begin(), splitters.end(), key) -
      splitters.begin());
}

[[nodiscard]] std::uint64_t sort_hash(const std::vector<Word>& bucket) {
  std::uint64_t h = fold(kFnvBasis, bucket.size());
  for (const Word k : bucket) h = fold(h, static_cast<std::uint64_t>(k));
  return h;
}

constexpr std::int32_t kSoSample = -3;
constexpr std::int32_t kSoSplit = -4;
constexpr std::int32_t kSoKey = -5;
constexpr std::int32_t kSoCount = -6;  // LogP only: per-destination count

/// Four supersteps: 0 = local sort + samples to the master, 1 = master
/// sorts the sample pool and broadcasts splitters, 2 = everyone buckets
/// and routes keys, 3 = final local sort. Lockstep: the master's own keys
/// also travel in superstep 2, so worker inboxes never mix phases.
class SortBspProgram final : public bsp::ProcProgram {
 public:
  SortBspProgram(std::shared_ptr<const SortSetup> su, ProcId me,
                 std::vector<Word>* result)
      : su_(std::move(su)), me_(me), result_(result) {}

  bool step(bsp::Ctx& c) override {
    const ProcId p = su_->p;
    switch (c.superstep()) {
      case 0: {
        sorted_ = su_->keys[static_cast<std::size_t>(me_)];
        std::sort(sorted_.begin(), sorted_.end());
        c.charge(sort_cost(sorted_.size()));
        const std::vector<Word> samples = regular_samples(sorted_, p);
        if (me_ == 0) pool_ = samples;
        else
          for (const Word v : samples) c.send(0, v, kSoSample);
        return true;
      }
      case 1: {
        if (me_ == 0) {
          for (const Message& m : c.inbox())
            if (m.tag == kSoSample) pool_.push_back(m.payload);
          splitters_ = pick_splitters(std::move(pool_), p);
          c.charge(sort_cost(static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(p)));
          for (ProcId w = 1; w < p; ++w)
            for (const Word v : splitters_) c.send(w, v, kSoSplit);
        }
        return true;
      }
      case 2: {
        if (me_ != 0) {
          for (const Message& m : c.inbox())
            if (m.tag == kSoSplit) splitters_.push_back(m.payload);
          std::sort(splitters_.begin(), splitters_.end());
        }
        for (const Word k : sorted_) {
          const ProcId b = bucket_of(splitters_, k);
          if (b == me_) final_.push_back(k);
          else c.send(b, k, kSoKey);
        }
        c.charge(static_cast<Time>(sorted_.size()));
        return true;
      }
      default: {
        for (const Message& m : c.inbox())
          if (m.tag == kSoKey) final_.push_back(m.payload);
        std::sort(final_.begin(), final_.end());
        c.charge(sort_cost(final_.size()));
        capture(result_, me_, sort_hash(final_));
        return false;
      }
    }
  }

 private:
  std::shared_ptr<const SortSetup> su_;
  ProcId me_;
  std::vector<Word>* result_;
  std::vector<Word> sorted_, pool_, splitters_, final_;
};

}  // namespace

std::vector<logp::ProgramFn> samplesort_logp(const Spec& s) {
  auto su = build_sort(s);
  if (s.result != nullptr) s.result->assign(static_cast<std::size_t>(s.p), 0);
  std::vector<logp::ProgramFn> progs;
  progs.reserve(static_cast<std::size_t>(s.p));
  for (ProcId i = 0; i < s.p; ++i)
    progs.emplace_back([su, i, result = s.result,
                        p = s.p](logp::Proc& pr) -> logp::Task<> {
      algo::Mailbox mb(pr);
      std::vector<Word> sorted = su->keys[static_cast<std::size_t>(i)];
      std::sort(sorted.begin(), sorted.end());
      co_await pr.compute(sort_cost(sorted.size()));
      const std::vector<Word> samples = regular_samples(sorted, p);
      std::vector<Word> splitters;
      if (i == 0) {
        std::vector<Word> pool = samples;
        for (ProcId w = 1; w < p; ++w)
          for (ProcId j = 0; j < p; ++j)
            pool.push_back((co_await recv_tag(mb, kSoSample)).payload);
        splitters = pick_splitters(std::move(pool), p);
        co_await pr.compute(sort_cost(static_cast<std::size_t>(p) *
                                      static_cast<std::size_t>(p)));
        for (ProcId w = 1; w < p; ++w)
          for (const Word v : splitters) co_await pr.send(w, v, kSoSplit);
      } else {
        for (const Word v : samples) co_await pr.send(0, v, kSoSample);
        for (ProcId j = 0; j + 1 < p; ++j)
          splitters.push_back((co_await recv_tag(mb, kSoSplit)).payload);
        std::sort(splitters.begin(), splitters.end());
      }
      // Bucket and route. Counts go first so every receiver knows its
      // exact inbound key total (BSP gets this for free from the barrier).
      std::vector<std::vector<Word>> outgoing(static_cast<std::size_t>(p));
      std::vector<Word> final_keys;
      for (const Word k : sorted) {
        const ProcId b = bucket_of(splitters, k);
        if (b == i) final_keys.push_back(k);
        else outgoing[static_cast<std::size_t>(b)].push_back(k);
      }
      co_await pr.compute(static_cast<Time>(sorted.size()));
      for (ProcId d = 0; d < p; ++d) {
        if (d == i) continue;
        const auto& out = outgoing[static_cast<std::size_t>(d)];
        co_await pr.send(d, static_cast<Word>(out.size()), kSoCount);
        for (const Word k : out) co_await pr.send(d, k, kSoKey);
      }
      Word inbound = 0;
      for (ProcId d = 0; d + 1 < p; ++d)
        inbound += (co_await recv_tag(mb, kSoCount)).payload;
      for (Word k = 0; k < inbound; ++k)
        final_keys.push_back((co_await recv_tag(mb, kSoKey)).payload);
      std::sort(final_keys.begin(), final_keys.end());
      co_await pr.compute(sort_cost(final_keys.size()));
      capture(result, i, sort_hash(final_keys));
    });
  return progs;
}

std::vector<std::unique_ptr<bsp::ProcProgram>> samplesort_bsp(const Spec& s) {
  auto su = build_sort(s);
  if (s.result != nullptr) s.result->assign(static_cast<std::size_t>(s.p), 0);
  std::vector<std::unique_ptr<bsp::ProcProgram>> progs;
  progs.reserve(static_cast<std::size_t>(s.p));
  for (ProcId i = 0; i < s.p; ++i)
    progs.push_back(std::make_unique<SortBspProgram>(su, i, s.result));
  return progs;
}

std::vector<Word> samplesort_expected(const Spec& s) {
  auto su = build_sort(s);
  std::vector<Word> pool;
  for (ProcId r = 0; r < s.p; ++r) {
    std::vector<Word> run = su->keys[static_cast<std::size_t>(r)];
    std::sort(run.begin(), run.end());
    for (const Word v : regular_samples(run, s.p)) pool.push_back(v);
  }
  const std::vector<Word> splitters = pick_splitters(std::move(pool), s.p);
  std::vector<std::vector<Word>> buckets(static_cast<std::size_t>(s.p));
  for (const auto& run : su->keys)
    for (const Word k : run)
      buckets[static_cast<std::size_t>(bucket_of(splitters, k))].push_back(k);
  std::vector<Word> out(static_cast<std::size_t>(s.p));
  for (ProcId r = 0; r < s.p; ++r) {
    auto& b = buckets[static_cast<std::size_t>(r)];
    std::sort(b.begin(), b.end());
    out[static_cast<std::size_t>(r)] = static_cast<Word>(sort_hash(b));
  }
  return out;
}

// ============================================================================
// bsf-iterative
// ============================================================================

namespace {

struct BsfSetup {
  ProcId p = 0;
  int rounds = 0;
  std::uint64_t x0 = 0;
  /// Owned (global index, element value) pairs per processor, cyclic deal.
  std::vector<std::vector<std::pair<Index, Word>>> elems;
};

[[nodiscard]] Word elem_value(std::uint64_t seed, Index g) {
  return static_cast<Word>(
      mix(seed ^ (0xB5F0E1ULL << 32) ^ static_cast<std::uint64_t>(g)) &
      0xFFFF);
}

[[nodiscard]] std::shared_ptr<const BsfSetup> build_bsf(const Spec& s) {
  require_valid("bsf-iterative", s);
  const Partitioning pt(Scheme::Cyclic, {s.nx},
                        Grid({static_cast<Index>(s.p)}));
  const part::AxisPart& ax = pt.axis(0);  // a 1-D grid: coordinate == rank
  auto su = std::make_shared<BsfSetup>();
  su->p = s.p;
  su->rounds = s.rounds;
  su->x0 = mix(s.seed ^ 0xB5F15EEDULL) & 0xFFFF;
  su->elems.resize(static_cast<std::size_t>(s.p));
  for (ProcId r = 0; r < s.p; ++r) {
    const Index count = ax.extent(r);
    auto& mine = su->elems[static_cast<std::size_t>(r)];
    mine.reserve(static_cast<std::size_t>(count));
    for (Index l = 0; l < count; ++l) {
      const Index g = ax.to_global(r, l);
      mine.emplace_back(g, elem_value(s.seed, g));
    }
  }
  return su;
}

/// One processor's contribution to iteration t's global reduction:
/// a wrapping fold over its owned elements, keyed by the iterate x.
[[nodiscard]] Word bsf_partial(const BsfSetup& su, ProcId me,
                               std::uint64_t x) {
  std::uint64_t acc = 0;
  for (const auto& [g, e] : su.elems[static_cast<std::size_t>(me)])
    acc += mix(x ^ (static_cast<std::uint64_t>(g) << 24) ^
               static_cast<std::uint64_t>(e));
  return static_cast<Word>(acc);
}

/// The master's next iterate from the combined partial sum S.
[[nodiscard]] std::uint64_t bsf_next(std::uint64_t x, std::uint64_t S) {
  return mix(x + S) & 0xFFFF;
}

[[nodiscard]] std::uint64_t bsf_hash(std::uint64_t x, Word last_partial) {
  return fold(fold(kFnvBasis, x), static_cast<std::uint64_t>(last_partial));
}

constexpr std::int32_t kBsfX = -7;
constexpr std::int32_t kBsfPart = -8;

/// Two supersteps per iteration t: even 2t = master combines iteration
/// t-1's partials, derives and broadcasts x_t, and computes its own
/// partial; odd 2t+1 = workers record x_t, compute partials, send them to
/// the master. The final broadcast of x_T rides even superstep 2T.
class BsfBspProgram final : public bsp::ProcProgram {
 public:
  BsfBspProgram(std::shared_ptr<const BsfSetup> su, ProcId me,
                std::vector<Word>* result)
      : su_(std::move(su)), me_(me), result_(result), x_(su_->x0) {}

  bool step(bsp::Ctx& c) override {
    // Idempotent halt: xsim::BspOnLogp keeps stepping every program until
    // the global OR of continue flags clears (see StencilBspProgram).
    if (halted_) return false;
    const std::int64_t t = c.superstep() / 2;
    const std::int64_t T = su_->rounds;
    if (c.superstep() % 2 == 0) {  // master phase
      if (me_ != 0) return true;
      if (t >= 1) {
        std::uint64_t S = static_cast<std::uint64_t>(partial_);
        for (const Message& m : c.inbox())
          if (m.tag == kBsfPart) S += static_cast<std::uint64_t>(m.payload);
        x_ = bsf_next(x_, S);
      }
      for (ProcId w = 1; w < c.nprocs(); ++w)
        c.send(w, static_cast<Word>(x_), kBsfX);
      if (t == T) {
        capture(result_, me_, bsf_hash(x_, partial_));
        halted_ = true;
        return false;
      }
      partial_ = bsf_partial(*su_, me_, x_);
      c.charge(static_cast<Time>(
          su_->elems[static_cast<std::size_t>(me_)].size()));
      return true;
    }
    // worker phase
    if (me_ == 0) return true;
    for (const Message& m : c.inbox())
      if (m.tag == kBsfX) x_ = static_cast<std::uint64_t>(m.payload);
    if (t == T) {
      capture(result_, me_, bsf_hash(x_, partial_));
      halted_ = true;
      return false;
    }
    partial_ = bsf_partial(*su_, me_, x_);
    c.charge(static_cast<Time>(
        su_->elems[static_cast<std::size_t>(me_)].size()));
    c.send(0, partial_, kBsfPart);
    return true;
  }

 private:
  std::shared_ptr<const BsfSetup> su_;
  ProcId me_;
  std::vector<Word>* result_;
  std::uint64_t x_;
  Word partial_ = 0;
  bool halted_ = false;
};

[[nodiscard]] constexpr std::int32_t bsf_x_tag(std::int64_t t) {
  return static_cast<std::int32_t>(t * 4 + 1);
}
[[nodiscard]] constexpr std::int32_t bsf_part_tag(std::int64_t t) {
  return static_cast<std::int32_t>(t * 4 + 2);
}

}  // namespace

std::vector<logp::ProgramFn> bsf_logp(const Spec& s) {
  auto su = build_bsf(s);
  if (s.result != nullptr) s.result->assign(static_cast<std::size_t>(s.p), 0);
  std::vector<logp::ProgramFn> progs;
  progs.reserve(static_cast<std::size_t>(s.p));
  for (ProcId i = 0; i < s.p; ++i)
    progs.emplace_back([su, i, result = s.result,
                        p = s.p](logp::Proc& pr) -> logp::Task<> {
      algo::Mailbox mb(pr);
      std::uint64_t x = su->x0;
      Word partial = 0;
      const Time charge = static_cast<Time>(
          su->elems[static_cast<std::size_t>(i)].size());
      for (std::int64_t t = 0; t < su->rounds; ++t) {
        if (i == 0) {
          for (ProcId w = 1; w < p; ++w)
            co_await pr.send(w, static_cast<Word>(x), bsf_x_tag(t));
          partial = bsf_partial(*su, i, x);
          co_await pr.compute(charge);
          std::uint64_t S = static_cast<std::uint64_t>(partial);
          for (ProcId w = 1; w < p; ++w)
            S += static_cast<std::uint64_t>(
                (co_await recv_tag(mb, bsf_part_tag(t))).payload);
          x = bsf_next(x, S);
        } else {
          x = static_cast<std::uint64_t>(
              (co_await recv_tag(mb, bsf_x_tag(t))).payload);
          partial = bsf_partial(*su, i, x);
          co_await pr.compute(charge);
          co_await pr.send(0, partial, bsf_part_tag(t));
        }
      }
      if (i == 0)
        for (ProcId w = 1; w < p; ++w)
          co_await pr.send(w, static_cast<Word>(x), bsf_x_tag(su->rounds));
      else
        x = static_cast<std::uint64_t>(
            (co_await recv_tag(mb, bsf_x_tag(su->rounds))).payload);
      capture(result, i, bsf_hash(x, partial));
    });
  return progs;
}

std::vector<std::unique_ptr<bsp::ProcProgram>> bsf_bsp(const Spec& s) {
  auto su = build_bsf(s);
  if (s.result != nullptr) s.result->assign(static_cast<std::size_t>(s.p), 0);
  std::vector<std::unique_ptr<bsp::ProcProgram>> progs;
  progs.reserve(static_cast<std::size_t>(s.p));
  for (ProcId i = 0; i < s.p; ++i)
    progs.push_back(std::make_unique<BsfBspProgram>(su, i, s.result));
  return progs;
}

std::vector<Word> bsf_expected(const Spec& s) {
  auto su = build_bsf(s);
  std::uint64_t x = su->x0;
  std::vector<Word> partials(static_cast<std::size_t>(s.p), 0);
  for (int t = 0; t < s.rounds; ++t) {
    std::uint64_t S = 0;
    for (ProcId r = 0; r < s.p; ++r) {
      partials[static_cast<std::size_t>(r)] = bsf_partial(*su, r, x);
      S += static_cast<std::uint64_t>(partials[static_cast<std::size_t>(r)]);
    }
    x = bsf_next(x, S);
  }
  std::vector<Word> out(static_cast<std::size_t>(s.p));
  for (ProcId r = 0; r < s.p; ++r)
    out[static_cast<std::size_t>(r)] =
        static_cast<Word>(bsf_hash(x, partials[static_cast<std::size_t>(r)]));
  return out;
}

}  // namespace bsplogp::workload
