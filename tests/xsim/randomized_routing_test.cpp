// Theorem-3 protocol tests: known-degree h-relations complete, are usually
// clean (no stalls, no cleanup) when capacity is large relative to log p,
// and respect the beta*G*h time shape.
#include "src/xsim/randomized_routing.h"

#include <gtest/gtest.h>

#include "src/core/rng.h"

namespace bsplogp::xsim {
namespace {

TEST(RandomizedRouting, DeliversEverything) {
  core::Rng rng(3);
  const logp::Params prm{32, 1, 2};  // capacity 16
  for (const ProcId p : {4, 8, 16}) {
    for (const Time h : {4, 16}) {
      const auto rel = routing::random_regular(p, h, rng);
      RandomizedRoutingOptions opt;
      opt.seed = 42;
      const auto rep = route_randomized(rel, prm, opt);
      EXPECT_TRUE(rep.logp.completed()) << "p=" << p << " h=" << h;
      EXPECT_EQ(rep.logp.messages,
                static_cast<std::int64_t>(rel.size()));
      EXPECT_EQ(rep.logp.messages_acquired,
                static_cast<std::int64_t>(rel.size()));
    }
  }
}

TEST(RandomizedRouting, UsuallyCleanWithLargeCapacity) {
  // capacity 16 >= 4*log2(16): the theorem's regime. With oversample 2 the
  // per-round overflow probability is tiny; most seeds must be clean.
  core::Rng rng(5);
  const logp::Params prm{64, 1, 4};  // capacity 16
  const ProcId p = 16;
  const Time h = 64;
  int clean = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const auto rel = routing::random_regular(p, h, rng);
    RandomizedRoutingOptions opt;
    opt.oversample = 3.0;  // 1 + delta with delta = 2, the theorem's shape
    opt.seed = 1000 + static_cast<std::uint64_t>(t);
    const auto rep = route_randomized(rel, prm, opt);
    EXPECT_TRUE(rep.logp.completed());
    clean += rep.clean();
    if (rep.clean()) {
      EXPECT_LE(rep.protocol_time(),
                RandomizedRoutingReport::bound(prm, h, opt.oversample));
    }
  }
  EXPECT_GE(clean, 8) << "stalling should be rare in the theorem's regime";
}

TEST(RandomizedRouting, RoundCountFollowsFormula) {
  const logp::Params prm{32, 1, 2};  // capacity 16
  core::Rng rng(6);
  const auto rel = routing::random_regular(8, 32, rng);
  RandomizedRoutingOptions opt;
  opt.oversample = 2.0;
  const auto rep = route_randomized(rel, prm, opt);
  EXPECT_EQ(rep.h, 32);
  EXPECT_EQ(rep.rounds, 4);  // ceil(2 * 32 / 16)
}

TEST(RandomizedRouting, HigherOversampleReducesLeftovers) {
  core::Rng rng(7);
  const logp::Params prm{8, 1, 2};  // capacity 4: tight, overflows likely
  const ProcId p = 8;
  const Time h = 32;
  std::int64_t tight_left = 0, loose_left = 0;
  for (int t = 0; t < 5; ++t) {
    const auto rel = routing::random_regular(p, h, rng);
    RandomizedRoutingOptions tight;
    tight.oversample = 1.0;
    tight.seed = static_cast<std::uint64_t>(t);
    tight_left += route_randomized(rel, prm, tight).leftover;
    RandomizedRoutingOptions loose;
    loose.oversample = 4.0;
    loose.seed = static_cast<std::uint64_t>(t);
    loose_left += route_randomized(rel, prm, loose).leftover;
  }
  EXPECT_GE(tight_left, loose_left);
}

TEST(RandomizedRouting, HotspotCompletesDespiteStalling) {
  // All-to-one violates any capacity eventually; the Stalling Rule must
  // carry the cleanup phase to completion.
  const logp::Params prm{8, 1, 2};
  const auto rel = routing::hotspot(9, 0, 4);
  const auto rep = route_randomized(rel, prm);
  EXPECT_TRUE(rep.logp.completed());
  EXPECT_EQ(rep.logp.messages,
            static_cast<std::int64_t>(rel.size()));
}

TEST(RandomizedRouting, DeterministicPerSeed) {
  core::Rng rng(8);
  const logp::Params prm{16, 1, 2};
  const auto rel = routing::random_regular(8, 8, rng);
  RandomizedRoutingOptions opt;
  opt.seed = 99;
  const auto a = route_randomized(rel, prm, opt);
  const auto b = route_randomized(rel, prm, opt);
  EXPECT_EQ(a.protocol_time(), b.protocol_time());
  EXPECT_EQ(a.leftover, b.leftover);
  EXPECT_EQ(a.logp.stall_events, b.logp.stall_events);
}

}  // namespace
}  // namespace bsplogp::xsim
