// FNV-1a hashing for the golden pins: a test hashes a run's outputs word
// by word and compares the hash with one computed on an earlier tree
// (LogP RunStats and event streams, PacketSim results, the relation
// generators).
#pragma once

#include <cstdint>

namespace bsplogp::testsupport {

/// FNV-1a over 64-bit words, little-endian byte order.
class Fnv64 {
 public:
  void add(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (u >> (8 * byte)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace bsplogp::testsupport
