// The BSP model leaves input-pool order unspecified (bsp::Ctx documents
// it), so every shipped BSP algorithm must be order-robust. We run each of
// them under InboxOrder::Shuffled with several seeds and require the same
// results as the canonical SourceOrder run or the serial oracle.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/algo/bsp_algorithms.h"
#include "src/core/rng.h"
#include "src/workload/apps.h"

namespace bsplogp::algo {
namespace {

bsp::Machine shuffled_machine(ProcId p, std::uint64_t seed) {
  bsp::Machine::Options opt;
  opt.inbox_order = bsp::InboxOrder::Shuffled;
  opt.shuffle_seed = seed;
  return bsp::Machine(p, bsp::Params{1, 1}, opt);
}

TEST(OrderRobustness, PrefixScan) {
  const ProcId p = 16;
  std::vector<Word> in(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    in[static_cast<std::size_t>(i)] = i * 3 - 7;
  std::vector<Word> reference;
  {
    auto progs = bsp_prefix_scan(p, in, ReduceOp::Sum, reference);
    bsp::Machine m(p, bsp::Params{1, 1});
    (void)m.run(progs);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<Word> out;
    auto progs = bsp_prefix_scan(p, in, ReduceOp::Sum, out);
    auto m = shuffled_machine(p, seed);
    (void)m.run(progs);
    EXPECT_EQ(out, reference) << "seed " << seed;
  }
}

TEST(OrderRobustness, SortsStaySorted) {
  core::Rng rng(67);
  const ProcId p = 8;
  std::vector<std::vector<Word>> blocks(static_cast<std::size_t>(p));
  std::vector<Word> all;
  for (auto& blk : blocks)
    for (int j = 0; j < 12; ++j) {
      blk.push_back(rng.uniform(0, 500));
      all.push_back(blk.back());
    }
  std::sort(all.begin(), all.end());

  // The sample-sort app family on 12 keys per processor; its result holds
  // a hash of each processor's final sorted bucket.
  workload::Spec sample;
  sample.p = p;
  sample.nx = 12 * p;
  sample.seed = 67;
  const std::vector<Word> sample_oracle =
      workload::samplesort_expected(sample);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    {
      std::vector<std::vector<Word>> out;
      auto progs = bsp_odd_even_sort(p, blocks, out);
      auto m = shuffled_machine(p, seed);
      (void)m.run(progs);
      std::vector<Word> got;
      for (const auto& blk : out)
        got.insert(got.end(), blk.begin(), blk.end());
      EXPECT_EQ(got, all) << "odd-even seed " << seed;
    }
    {
      std::vector<Word> result;
      sample.result = &result;
      auto progs = workload::samplesort_bsp(sample);
      auto m = shuffled_machine(p, seed);
      (void)m.run(progs);
      EXPECT_EQ(result, sample_oracle) << "sample seed " << seed;
    }
  }
}

}  // namespace
}  // namespace bsplogp::algo
