// bench::PointCodec (bench/point_codec.h): the byte-exact result codec
// behind SweepRunner's --repeat comparison. Round-trip fuzz proves
// decode(encode(v)) == v bit for bit over randomized values (including
// doubles with full mantissas), so byte-identical encodings mean equal
// results; rejection fuzz proves a mutated payload never yields a silent
// partial decode — it either still parses to a full valid value or
// decode returns false and leaves the output untouched.
#include "bench/point_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "src/core/json.h"
#include "src/core/rng.h"

namespace bsplogp::bench {
namespace {

struct Inner {
  std::int64_t count = 0;
  double ratio = 0;

  friend bool operator==(const Inner&, const Inner&) = default;

  template <class Ar>
  void io(Ar& ar) {
    ar(count);
    ar(ratio);
  }
};

struct Outer {
  std::int64_t t = 0;
  double x = 0;
  bool flag = false;
  std::string label;
  Inner inner;

  friend bool operator==(const Outer&, const Outer&) = default;

  template <class Ar>
  void io(Ar& ar) {
    ar(t);
    ar(x);
    ar(flag);
    ar(label);
    ar(inner);
  }
};

double random_double(core::Rng& rng) {
  // Full-mantissa values across magnitudes: the %.17g contract must
  // survive exponents, not just friendly decimals.
  const double mantissa =
      static_cast<double>(rng()) / static_cast<double>(UINT64_MAX);
  const int exp = static_cast<int>(rng() % 600) - 300;
  return std::ldexp(mantissa * 2 - 1, exp);
}

std::string random_label(core::Rng& rng) {
  static const char alphabet[] =
      "abcXYZ 0123456789\"\\\n\t\r\x01\x1f{}[],:";
  std::string s;
  const std::size_t len = rng() % 12;
  for (std::size_t i = 0; i < len; ++i)
    s.push_back(alphabet[rng() % (sizeof alphabet - 1)]);
  return s;
}

TEST(PointCodec, RoundTripFuzzIsBitExact) {
  core::Rng rng(0xC0DEC);
  for (int iter = 0; iter < 500; ++iter) {
    Outer v;
    v.t = static_cast<std::int64_t>(rng());
    v.x = random_double(rng);
    v.flag = (rng() & 1) != 0;
    v.label = random_label(rng);
    v.inner.count = static_cast<std::int64_t>(rng() % 1000) - 500;
    v.inner.ratio = random_double(rng);

    const std::string payload = PointCodec::encode(v);
    Outer back;
    ASSERT_TRUE(PointCodec::decode(payload, &back)) << payload;
    EXPECT_EQ(back, v) << payload;
    // And the re-encode is byte-identical: one value, one spelling.
    EXPECT_EQ(PointCodec::encode(back), payload);
  }
}

TEST(PointCodec, RoundTripsExtremeScalars) {
  for (const double d :
       {0.0, -0.0, 0.1, 1e308, -1e-308, 4e-324,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon()}) {
    double back = 99;
    ASSERT_TRUE(PointCodec::decode(PointCodec::encode(d), &back));
    EXPECT_EQ(std::signbit(back), std::signbit(d));
    EXPECT_EQ(back, d);
  }
  for (const std::int64_t i :
       {std::int64_t{0}, std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    std::int64_t back = 7;
    ASSERT_TRUE(PointCodec::decode(PointCodec::encode(i), &back));
    EXPECT_EQ(back, i);
  }
}

TEST(PointCodec, RejectsMalformedShapes) {
  Outer out;
  out.t = 42;
  const Outer untouched = out;
  // Not JSON at all; not an array; wrong arity (short and long); type
  // mismatches; integer where the schema narrows.
  for (const char* bad :
       {"", "garbage", "{\"a\": 1}", "3", "[]", "[1, 2]",
        "[1, 2.5, true, \"x\", [1, 0.5], 9]",
        "[\"one\", 2.5, true, \"x\", [1, 0.5]]",
        "[1, 2.5, 7, \"x\", [1, 0.5]]",
        "[1, 2.5, true, \"x\", [0.25, 0.5]]",
        "[1, 2.5, true, \"x\", 3]"}) {
    EXPECT_FALSE(PointCodec::decode(std::string(bad), &out)) << bad;
    EXPECT_EQ(out, untouched) << "partial decode leaked from: " << bad;
  }
}

TEST(PointCodec, MutationFuzzNeverYieldsAPartialDecode) {
  core::Rng rng(0xBADC0DE);
  Outer v;
  v.t = 1234567890123;
  v.x = 0.1;
  v.flag = true;
  v.label = "hot\"spot";
  v.inner = Inner{-9, 2.5};
  const std::string payload = PointCodec::encode(v);
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mut = payload;
    // 1-3 random byte edits: overwrite, delete, or insert.
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits && !mut.empty(); ++e) {
      const std::size_t pos = rng() % mut.size();
      switch (rng() % 3) {
        case 0: mut[pos] = static_cast<char>(rng() % 96 + 32); break;
        case 1: mut.erase(pos, 1); break;
        default: mut.insert(pos, 1, static_cast<char>(rng() % 96 + 32));
      }
    }
    Outer got = v;
    if (!PointCodec::decode(mut, &got)) {
      EXPECT_EQ(got, v) << "rejected decode touched the output: " << mut;
      ++rejected;
    }
    // Accepted mutants are fine (e.g. a digit edit is just another valid
    // value) — the contract is no partial/corrupt decode, not detection
    // of every edit.
  }
  EXPECT_GT(rejected, 0);  // the fuzz actually exercised the reject path
}

TEST(PointCodec, UnicodeEscapesRoundTripGridShapedKeys) {
  // Grid-shaped labels (the bench_app_crossover style: family, grid
  // dims, and sizes packed into one string) with every control byte
  // embedded: the encoder must spell them \u00XX and the decoder must
  // restore the exact bytes. Multi-byte UTF-8 passes through raw.
  for (int ctrl = 0; ctrl < 0x20; ++ctrl) {
    Outer v;
    v.label = "f=stencil-2d;grid=2x3;nx=12;ny=8";
    v.label.push_back(static_cast<char>(ctrl));
    v.label += "\xc3\xa9\xe2\x82\xac";  // é and the euro sign, as UTF-8
    const std::string payload = PointCodec::encode(v);
    if (ctrl != '\n' && ctrl != '\t' && ctrl != '\r') {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", ctrl);
      EXPECT_NE(payload.find(esc), std::string::npos) << payload;
    }
    Outer back;
    ASSERT_TRUE(PointCodec::decode(payload, &back)) << payload;
    EXPECT_EQ(back.label, v.label) << "ctrl byte " << ctrl;
    EXPECT_EQ(PointCodec::encode(back), payload);
  }
}

TEST(PointCodec, CoreParserDecodesUnicodeEscapesToUtf8) {
  // \uXXXX above 0x7F decodes to multi-byte UTF-8: one-, two-, and
  // three-byte sequences from the same escape syntax.
  core::JsonValue doc;
  ASSERT_TRUE(
      core::JsonParser("[\"g=2x3;\\u0041\\u00e9\\u20ac\"]").parse(doc));
  ASSERT_EQ(doc.array.size(), 1u);
  EXPECT_EQ(doc.array[0].str, "g=2x3;A\xc3\xa9\xe2\x82\xac");
  // Truncated and non-hex escapes are malformed, not silently accepted.
  core::JsonValue bad;
  EXPECT_FALSE(core::JsonParser(R"(["\u12"])").parse(bad));
  EXPECT_FALSE(core::JsonParser(R"(["\u12zz"])").parse(bad));
}

struct Flags {
  std::int64_t ticks = 0;
  bool ok = false;

  friend bool operator==(const Flags&, const Flags&) = default;

  template <class Ar>
  void io(Ar& ar) {
    ar(ticks);
    ar(ok);
  }
};

struct Record {
  std::int64_t big = 0;
  double ratio = 0;
  std::string note;
  Flags inner;

  friend bool operator==(const Record&, const Record&) = default;

  template <class Ar>
  void io(Ar& ar) {
    ar(big);
    ar(ratio);
    ar(note);
    ar(inner);
  }
};

template <typename R>
R reencode(const R& r) {
  R out{};
  EXPECT_TRUE(PointCodec::decode(PointCodec::encode(r), &out));
  return out;
}

TEST(ResultCodec, RoundTripsExtremeValuesExactly) {
  Record r;
  r.big = std::numeric_limits<std::int64_t>::max();  // > 2^53: needs raw
  r.ratio = 0.1;                                     // not binary-exact
  r.note = "line\nwith \"quotes\" and \\slash";
  r.inner = Flags{std::numeric_limits<std::int64_t>::min(), true};
  EXPECT_EQ(reencode(r), r);

  // Byte-exactness, not just equality: re-encoding the decoded value
  // reproduces the identical payload string.
  Record decoded{};
  ASSERT_TRUE(PointCodec::decode(PointCodec::encode(r), &decoded));
  EXPECT_EQ(PointCodec::encode(decoded), PointCodec::encode(r));
}

struct One {
  double v = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(v);
  }
};

TEST(ResultCodec, RoundTripsDoubleBitPatterns) {
  for (const double d :
       {1.0 / 3.0, 1e300, 5e-324, -0.0, 123456789.123456789}) {
    One r{d}, out{};
    ASSERT_TRUE(PointCodec::decode(PointCodec::encode(r), &out));
    EXPECT_EQ(std::signbit(out.v), std::signbit(d));
    EXPECT_EQ(out.v, d);
  }
}

TEST(ResultCodec, RejectsArityAndTypeMismatches) {
  Flags out{};
  // Too few fields.
  EXPECT_FALSE(PointCodec::decode(std::string("[1]"), &out));
  // Too many fields.
  EXPECT_FALSE(PointCodec::decode(std::string("[1, true, 3]"), &out));
  // Wrong type where the bool belongs.
  EXPECT_FALSE(PointCodec::decode(std::string("[1, 2]"), &out));
  // Fractional number where the integer belongs.
  EXPECT_FALSE(PointCodec::decode(std::string("[1.5, true]"), &out));
  // A failed decode leaves the output untouched at the call site's
  // default — decode only writes through on full success.
  out = Flags{77, true};
  EXPECT_FALSE(PointCodec::decode(std::string("[1]"), &out));
  EXPECT_EQ(out, (Flags{77, true}));
}

}  // namespace
}  // namespace bsplogp::bench
