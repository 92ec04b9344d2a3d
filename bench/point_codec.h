// Byte-exact point-result codec: the --repeat proof. SweepRunner encodes
// every re-evaluation of a grid point and demands the bytes identical to
// the first (harness.h), so a result field that drifts between runs dies
// loudly instead of reaching a table.
//
// A result type opts in by exposing
//
//   template <class Ar> void io(Ar& ar) { ar(a); ar(b); ... }
//
// listing every member in a fixed order; nested structs with io() compose.
// Arithmetic result types (Time, double, ...) need nothing. The encoding
// is exact: int64 as decimal, double as %.17g (re-parsed by strtod to the
// identical bits, signed zero included), bool as true/false, strings
// escaped. Equal bytes therefore mean equal results, and a signed-zero
// flip — which operator== would miss — still counts as a divergence.
//
// decode is the inverse. The round-trip tests use it to prove the
// encoding lossless; it never produces a partial result: on any arity or
// type mismatch it returns false and the caller's value is untouched.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

#include "src/core/json.h"

namespace bsplogp::bench {

/// JSON string escaping (quotes, backslashes, control characters). Shared
/// by the codec's string fields and the Reporter's string cells.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Accumulates fields into the JSON payload array.
class Encoder {
 public:
  template <typename T>
  void operator()(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      append(v ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%" PRId64,
                    static_cast<std::int64_t>(v));
      append(buf);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v));
      append(buf);
    } else if constexpr (std::is_same_v<T, std::string>) {
      append("\"" + json_escape(v) + "\"");
    } else {
      const_cast<T&>(v).io(*this);  // io() only reads under an Encoder
    }
  }

  [[nodiscard]] std::string str() const { return "[" + body_ + "]"; }

 private:
  void append(const std::string& tok) {
    if (!body_.empty()) body_ += ", ";
    body_ += tok;
  }
  std::string body_;
};

/// Replays a payload array into the same field sequence. Any arity or
/// type mismatch poisons the decode (ok() goes false); partial writes
/// are discarded by the caller.
class Decoder {
 public:
  explicit Decoder(const core::JsonValue& payload) : payload_(payload) {}

  template <typename T>
  void operator()(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      const core::JsonValue* j = next(core::JsonValue::Type::Bool);
      if (j != nullptr) v = j->boolean;
    } else if constexpr (std::is_integral_v<T>) {
      const core::JsonValue* j = next(core::JsonValue::Type::Number);
      if (j != nullptr) {
        char* end = nullptr;
        const long long parsed = std::strtoll(j->raw.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          ok_ = false;  // fractional or malformed where an integer belongs
        } else {
          v = static_cast<T>(parsed);
          if (static_cast<long long>(v) != parsed) ok_ = false;  // narrowed
        }
      }
    } else if constexpr (std::is_floating_point_v<T>) {
      const core::JsonValue* j = next(core::JsonValue::Type::Number);
      if (j != nullptr) v = static_cast<T>(std::strtod(j->raw.c_str(), nullptr));
    } else if constexpr (std::is_same_v<T, std::string>) {
      const core::JsonValue* j = next(core::JsonValue::Type::String);
      if (j != nullptr) v = j->str;
    } else {
      v.io(*this);
    }
  }

  /// True iff every field matched and the payload was fully consumed.
  [[nodiscard]] bool ok() const { return ok_ && next_ == payload_.array.size(); }

 private:
  const core::JsonValue* next(core::JsonValue::Type want) {
    if (!ok_ || next_ >= payload_.array.size() ||
        payload_.array[next_].type != want) {
      ok_ = false;
      return nullptr;
    }
    return &payload_.array[next_++];
  }

  const core::JsonValue& payload_;
  std::size_t next_ = 0;
  bool ok_ = true;
};

/// The public face: PointCodec::encode / PointCodec::decode.
struct PointCodec {
  template <typename R>
  [[nodiscard]] static std::string encode(const R& r) {
    Encoder enc;
    enc(r);
    return enc.str();
  }

  template <typename R>
  [[nodiscard]] static bool decode(const std::string& payload_json, R* out) {
    core::JsonValue payload;
    if (!core::JsonParser(payload_json).parse(payload) ||
        payload.type != core::JsonValue::Type::Array) {
      return false;
    }
    R tmp{};
    Decoder dec(payload);
    dec(tmp);
    if (!dec.ok()) return false;
    *out = tmp;
    return true;
  }
};

}  // namespace bsplogp::bench
