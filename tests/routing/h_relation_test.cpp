#include "src/routing/h_relation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/support/fnv64.h"

namespace bsplogp::routing {
namespace {

TEST(HRelation, DegreeIsMaxOfInAndOut) {
  HRelation rel(4);
  rel.add(0, 1);
  rel.add(0, 2);
  rel.add(0, 3);
  rel.add(1, 3);
  EXPECT_EQ(rel.max_out_degree(), 3);  // proc 0 sends 3
  EXPECT_EQ(rel.max_in_degree(), 2);   // proc 3 receives 2
  EXPECT_EQ(rel.degree(), 3);
}

TEST(HRelation, EmptyRelationHasDegreeZero) {
  HRelation rel(8);
  EXPECT_EQ(rel.degree(), 0);
  EXPECT_EQ(rel.size(), 0u);
}

TEST(HRelation, RandomRegularHasExactDegree) {
  core::Rng rng(3);
  for (const ProcId p : {2, 5, 16, 33}) {
    for (const Time h : {1, 3, 8}) {
      const HRelation rel = random_regular(p, h, rng);
      EXPECT_EQ(rel.size(), static_cast<std::size_t>(p) *
                                static_cast<std::size_t>(h));
      for (const Time d : rel.out_degrees()) EXPECT_EQ(d, h);
      for (const Time d : rel.in_degrees()) EXPECT_EQ(d, h);
      for (const Message& m : rel.messages()) EXPECT_NE(m.src, m.dst);
    }
  }
}

TEST(HRelation, RandomPermutationIsOneRelation) {
  core::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const HRelation rel = random_permutation(64, rng);
    EXPECT_EQ(rel.degree(), 1);
    EXPECT_EQ(rel.size(), 64u);
    for (const Message& m : rel.messages()) EXPECT_NE(m.src, m.dst);
  }
}

TEST(HRelation, PartialPermutationRespectsFill) {
  core::Rng rng(6);
  const HRelation rel = random_permutation(1000, rng, 0.3);
  EXPECT_LE(rel.degree(), 1);
  EXPECT_GT(rel.size(), 200u);
  EXPECT_LT(rel.size(), 400u);
}

TEST(HRelation, HotspotShape) {
  const HRelation rel = hotspot(9, 4, 3);
  EXPECT_EQ(rel.size(), 8u * 3u);
  EXPECT_EQ(rel.max_in_degree(), 24);
  EXPECT_EQ(rel.max_out_degree(), 3);
  EXPECT_EQ(rel.in_degrees()[4], 24);
}

TEST(HRelation, RandomMessagesDegreeConcentrates) {
  core::Rng rng(7);
  const ProcId p = 64;
  const std::int64_t m = 64 * 50;
  const HRelation rel = random_messages(p, m, rng);
  EXPECT_EQ(rel.size(), static_cast<std::size_t>(m));
  // mean degree 50; max should be within a small factor.
  EXPECT_LT(rel.degree(), 110);
  EXPECT_GT(rel.degree(), 50);
}

using testsupport::Fnv64;

TEST(HRelation, GeneratorOutputsArePinned) {
  // Each hash covers every message's (src, dst, payload, tag) in order,
  // then the generator's next draw, so a change in the relation or in the
  // number of draws a call consumes fails. The pins were computed before
  // random_regular wrote its relation in place.
  struct Golden {
    const char* name;
    HRelation (*make)(core::Rng&);
    std::uint64_t hash;
  };
  const Golden kGolden[] = {
      {"random_regular p=2 h=5",
       [](core::Rng& r) { return random_regular(2, 5, r); },
       0x24764327640fa279ULL},
      {"random_regular p=3 h=7",
       [](core::Rng& r) { return random_regular(3, 7, r); },
       0x31b551099d3b02ecULL},
      {"random_regular p=64 h=8",
       [](core::Rng& r) { return random_regular(64, 8, r); },
       0xf20f89fea6d1e342ULL},
      {"random_permutation p=64 fill=1",
       [](core::Rng& r) { return random_permutation(64, r); },
       0xc883d609cfa5401bULL},
      {"random_permutation p=64 fill=0.5",
       [](core::Rng& r) { return random_permutation(64, r, 0.5); },
       0x9dbfeb9d7ad14b06ULL},
      {"random_messages p=16 m=200",
       [](core::Rng& r) { return random_messages(16, 200, r); },
       0x9bfab9ed0f226b61ULL},
      {"hotspot p=9 target=4 k=3",
       [](core::Rng&) { return hotspot(9, 4, 3); },
       0xb417c5cbfb02ddc3ULL},
  };
  for (const Golden& g : kGolden) {
    core::Rng rng(2024);
    const HRelation rel = g.make(rng);
    Fnv64 h;
    for (const Message& m : rel.messages()) {
      h.add(m.src);
      h.add(m.dst);
      h.add(m.payload);
      h.add(m.tag);
    }
    h.add(static_cast<std::int64_t>(rng()));
    EXPECT_EQ(h.value(), g.hash)
        << g.name << std::hex << " 0x" << h.value();
  }
}

}  // namespace
}  // namespace bsplogp::routing
