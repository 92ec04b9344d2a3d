#include "src/algo/bsp_algorithms.h"

#include <algorithm>
#include <utility>

#include "src/core/contracts.h"

namespace bsplogp::algo {

namespace {

/// Builds one FnProgram per processor from a factory of step functions.
template <typename MakeFn>
BspPrograms build(ProcId p, MakeFn make) {
  BspPrograms progs;
  progs.reserve(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    progs.push_back(std::make_unique<bsp::FnProgram>(make(i)));
  return progs;
}

}  // namespace

BspPrograms bsp_prefix_scan(ProcId p, std::span<const Word> in, ReduceOp op,
                            std::vector<Word>& out) {
  BSPLOGP_EXPECTS(std::cmp_equal(in.size(), p));
  out.assign(static_cast<std::size_t>(p), 0);
  const int rounds = p > 1 ? ceil_log2(p) : 0;
  struct State {
    Word acc = 0;
  };
  auto states =
      std::make_shared<std::vector<State>>(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    (*states)[static_cast<std::size_t>(i)].acc =
        in[static_cast<std::size_t>(i)];
  return build(p, [states, &out, op, p, rounds](ProcId me) {
    return [states, &out, op, p, rounds, me](bsp::Ctx& c) {
      State& st = (*states)[static_cast<std::size_t>(me)];
      // Hillis–Steele: at superstep k, combine the window arriving from
      // me - 2^(k-1), then send the updated window to me + 2^k.
      for (const Message& m : c.inbox()) {
        st.acc = apply(op, m.payload, st.acc);
        c.charge(1);
      }
      const std::int64_t k = c.superstep();
      if (k < rounds) {
        const ProcId stride = static_cast<ProcId>(ProcId{1} << k);
        if (me + stride < p) c.send(me + stride, st.acc);
        return true;
      }
      out[static_cast<std::size_t>(me)] = st.acc;
      return false;
    };
  });
}

BspPrograms bsp_odd_even_sort(ProcId p,
                              const std::vector<std::vector<Word>>& blocks,
                              std::vector<std::vector<Word>>& out) {
  BSPLOGP_EXPECTS(std::cmp_equal(blocks.size(), p));
  const std::size_t b = blocks.empty() ? 0 : blocks[0].size();
  for (const auto& blk : blocks) BSPLOGP_EXPECTS(blk.size() == b);
  out.assign(static_cast<std::size_t>(p), {});

  struct State {
    std::vector<Word> block;
  };
  auto states =
      std::make_shared<std::vector<State>>(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    (*states)[static_cast<std::size_t>(i)].block =
        blocks[static_cast<std::size_t>(i)];

  return build(p, [states, &out, p, b](ProcId me) {
    return [states, &out, p, b, me](bsp::Ctx& c) {
      State& st = (*states)[static_cast<std::size_t>(me)];
      const std::int64_t s = c.superstep();
      if (s == 0) {
        std::sort(st.block.begin(), st.block.end());
        c.charge(static_cast<Time>(b) * std::max(1, ceil_log2(
                     static_cast<std::int64_t>(b) + 1)));
      } else {
        // Merge-split with the previous phase's partner: keep the low half
        // if we are the left element of the pair, high half otherwise.
        if (!c.inbox().empty()) {
          std::vector<Word> merged;
          merged.reserve(2 * b);
          for (const Message& m : c.inbox()) merged.push_back(m.payload);
          const ProcId partner = c.inbox()[0].src;
          merged.insert(merged.end(), st.block.begin(), st.block.end());
          std::sort(merged.begin(), merged.end());
          c.charge(static_cast<Time>(merged.size()));
          if (me < partner)
            st.block.assign(merged.begin(),
                            merged.begin() + static_cast<std::ptrdiff_t>(b));
          else
            st.block.assign(merged.end() - static_cast<std::ptrdiff_t>(b),
                            merged.end());
        }
      }
      // p phases of odd-even transposition: phase t pairs (i, i+1) with
      // i + t even. Phase t's exchange is sent in superstep t (0-based
      // phases start at superstep 1).
      const std::int64_t phase = s + 1;
      if (phase <= p) {
        const std::int64_t t = phase - 1;
        ProcId partner = -1;
        if ((me + t) % 2 == 0 && me + 1 < p) partner = me + 1;
        if ((me + t) % 2 == 1 && me - 1 >= 0)
          partner = static_cast<ProcId>(me - 1);
        if (partner >= 0)
          for (const Word w : st.block) c.send(partner, w);
        return true;
      }
      out[static_cast<std::size_t>(me)] = st.block;
      return false;
    };
  });
}

}  // namespace bsplogp::algo
