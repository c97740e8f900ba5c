// FNV-1a, 64-bit: a stable hash, the same on every host and build. The
// differential digest tests use it to pin seeded results to constants
// generated at an earlier commit.
#pragma once

#include <cstdint>

namespace dfly {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add_byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  /// The eight bytes of `v`, least significant first.
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<unsigned char>(v >> (8 * i)));
  }
};

}  // namespace dfly
