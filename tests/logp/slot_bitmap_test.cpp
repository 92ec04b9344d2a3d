// SlotBitmap rank/select: count_free and nth_free are the word-at-a-time
// core of the UniformRandom delivery schedule — a draw below
// count_free(lo, hi) selects nth_free(lo, hi, k), and both must agree
// exactly with a naive per-slot scan, the oracle that materializes the
// list of free slots and takes its k-th entry.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/rng.h"
#include "src/core/types.h"
#include "src/logp/slot_bitmap.h"

namespace bsplogp::logp::detail {
namespace {

std::vector<Time> naive_free(const SlotBitmap& bm, Time lo, Time hi) {
  std::vector<Time> out;
  for (Time s = lo; s <= hi; ++s)
    if (!bm.occupied(s)) out.push_back(s);
  return out;
}

TEST(SlotBitmap, CountFreeOnEmptyWindowIsWindowSize) {
  SlotBitmap bm;
  bm.init(128);
  EXPECT_EQ(bm.count_free(1, 128), 128);
  EXPECT_EQ(bm.count_free(5, 5), 1);
}

TEST(SlotBitmap, CountAndNthMatchNaiveScanAcrossPatterns) {
  // Windows chosen to cross word boundaries and wrap the ring; occupancy
  // patterns from a fixed rng so word-skip and in-word-rank paths both
  // trigger.
  SlotBitmap bm;
  bm.init(200);  // ring rounds up to 256 bits
  core::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    bm.init(200);
    const Time lo = static_cast<Time>(rng.below(400)) + 1;
    const Time hi = lo + static_cast<Time>(rng.below(190));
    for (Time s = lo; s <= hi; ++s)
      if (rng.below(3) == 0) bm.set(s);
    const std::vector<Time> expect = naive_free(bm, lo, hi);
    ASSERT_EQ(bm.count_free(lo, hi), static_cast<Time>(expect.size()))
        << "trial " << trial << " window [" << lo << ", " << hi << "]";
    for (Time k = 0; k < static_cast<Time>(expect.size()); ++k)
      ASSERT_EQ(bm.nth_free(lo, hi, k), expect[static_cast<std::size_t>(k)])
          << "trial " << trial << " k " << k;
    EXPECT_EQ(bm.nth_free(lo, hi, static_cast<Time>(expect.size())), -1);
  }
}

TEST(SlotBitmap, FullWindowHasNoFreeSlots) {
  SlotBitmap bm;
  bm.init(64);
  for (Time s = 10; s <= 40; ++s) bm.set(s);
  EXPECT_EQ(bm.count_free(10, 40), 0);
  EXPECT_EQ(bm.nth_free(10, 40, 0), -1);
}

TEST(SlotBitmap, NthFreeZeroEqualsFirstFree) {
  SlotBitmap bm;
  bm.init(128);
  for (const Time s : {3, 4, 5, 70, 71, 100}) bm.set(s);
  for (const Time lo : {1, 3, 64, 65}) {
    const Time hi = lo + 60;
    EXPECT_EQ(bm.nth_free(lo, hi, 0), bm.first_free(lo, hi)) << lo;
  }
}

TEST(SlotBitmap, LastFreeAgreesWithHighestRank) {
  SlotBitmap bm;
  bm.init(128);
  core::Rng rng(7);
  for (Time s = 1; s <= 120; ++s)
    if (rng.below(2) == 0) bm.set(s);
  const Time lo = 5, hi = 110;
  const Time cnt = bm.count_free(lo, hi);
  ASSERT_GT(cnt, 0);
  EXPECT_EQ(bm.nth_free(lo, hi, cnt - 1), bm.last_free(lo, hi));
}

}  // namespace
}  // namespace bsplogp::logp::detail
