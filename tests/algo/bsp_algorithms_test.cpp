// Correctness and cost-shape tests for the prefix scan and the odd-even
// block sort.
#include "src/algo/bsp_algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/rng.h"

namespace bsplogp::algo {
namespace {

bsp::RunStats run(ProcId p, bsp::Params prm, const BspPrograms& progs) {
  bsp::Machine m(p, prm);
  return m.run(progs);
}

TEST(BspAlgorithms, PrefixScanMatchesSerial) {
  for (const ProcId p : {1, 2, 5, 16, 33, 128}) {
    std::vector<Word> in(static_cast<std::size_t>(p));
    for (ProcId i = 0; i < p; ++i)
      in[static_cast<std::size_t>(i)] = (i % 7) - 3;
    std::vector<Word> out;
    const auto progs = bsp_prefix_scan(p, in, ReduceOp::Sum, out);
    const auto st = run(p, bsp::Params{1, 1}, progs);
    EXPECT_FALSE(st.hit_superstep_limit);
    Word acc = 0;
    for (ProcId i = 0; i < p; ++i) {
      acc += in[static_cast<std::size_t>(i)];
      EXPECT_EQ(out[static_cast<std::size_t>(i)], acc) << "p=" << p;
    }
    // ceil(log2 p) communication supersteps, degree 1 each.
    for (const auto& sc : st.trace) EXPECT_LE(sc.h, 1);
    EXPECT_LE(st.supersteps, (p > 1 ? ceil_log2(p) : 0) + 1);
  }
}

TEST(BspAlgorithms, OddEvenSortSortsRandomInput) {
  core::Rng rng(2026);
  for (const ProcId p : {1, 2, 4, 8, 13}) {
    const std::size_t b = 16;
    std::vector<std::vector<Word>> blocks(static_cast<std::size_t>(p));
    std::vector<Word> all;
    for (auto& blk : blocks)
      for (std::size_t j = 0; j < b; ++j) {
        blk.push_back(rng.uniform(-1000, 1000));
        all.push_back(blk.back());
      }
    std::vector<std::vector<Word>> out;
    const auto progs = bsp_odd_even_sort(p, blocks, out);
    const auto st = run(p, bsp::Params{1, 1}, progs);
    EXPECT_FALSE(st.hit_superstep_limit);

    std::sort(all.begin(), all.end());
    std::vector<Word> got;
    for (const auto& blk : out) {
      EXPECT_EQ(blk.size(), b);
      EXPECT_TRUE(std::is_sorted(blk.begin(), blk.end()));
      got.insert(got.end(), blk.begin(), blk.end());
    }
    EXPECT_EQ(got, all) << "p=" << p;
  }
}

TEST(BspAlgorithms, OddEvenSortHEqualsBlockSize) {
  const ProcId p = 8;
  const std::size_t b = 32;
  std::vector<std::vector<Word>> blocks(
      static_cast<std::size_t>(p), std::vector<Word>(b, 1));
  std::vector<std::vector<Word>> out;
  const auto progs = bsp_odd_even_sort(p, blocks, out);
  const auto st = run(p, bsp::Params{1, 1}, progs);
  Time max_h = 0;
  for (const auto& sc : st.trace) max_h = std::max(max_h, sc.h);
  EXPECT_EQ(max_h, static_cast<Time>(b));
}

}  // namespace
}  // namespace bsplogp::algo
