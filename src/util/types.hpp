// Fundamental integer aliases and small helpers shared across the project.
#pragma once

#include <cstddef>
#include <cstdint>

namespace minova {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Guest/physical addresses. The simulated platform is a 32-bit ARM system,
/// so both address spaces are 32 bits wide.
using paddr_t = u32;
using vaddr_t = u32;

/// Simulated time is counted in CPU clock cycles.
using cycles_t = u64;

/// Round `v` down to a multiple of `align` (power of two).
constexpr u64 align_down(u64 v, u64 align) noexcept { return v & ~(align - 1); }

/// Round `v` up to a multiple of `align` (power of two).
constexpr u64 align_up(u64 v, u64 align) noexcept {
  return (v + align - 1) & ~(align - 1);
}

constexpr bool is_aligned(u64 v, u64 align) noexcept {
  return (v & (align - 1)) == 0;
}

constexpr bool is_pow2(u64 v) noexcept { return v != 0 && (v & (v - 1)) == 0; }

/// Extract bits [hi:lo] of `v` (inclusive), ARM reference-manual style.
constexpr u32 bits(u32 v, unsigned hi, unsigned lo) noexcept {
  return (v >> lo) & ((hi - lo == 31u) ? 0xFFFFFFFFu : ((1u << (hi - lo + 1)) - 1u));
}

constexpr bool bit(u32 v, unsigned n) noexcept { return ((v >> n) & 1u) != 0; }

inline constexpr u32 kKiB = 1024u;
inline constexpr u32 kMiB = 1024u * 1024u;

}  // namespace minova
