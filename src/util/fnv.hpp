// FNV-1a (64-bit): the one fold every digest and checksum in the simulator
// uses. Words are folded byte by byte, least significant first; a string
// folds its bytes and then its length.
#pragma once

#include <string_view>

#include "util/types.hpp"

namespace minova::util {

inline constexpr u64 kFnvOffset = 0xCBF2'9CE4'8422'2325ull;
inline constexpr u64 kFnvPrime = 0x0000'0100'0000'01B3ull;

struct Fnv1a {
  u64 h = kFnvOffset;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFu;
      h *= kFnvPrime;
    }
  }
  void mix(std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= kFnvPrime;
    }
    mix(u64(s.size()));
  }
};

}  // namespace minova::util
