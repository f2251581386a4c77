// Memory hierarchy: L1 I/D -> unified L2 -> DRAM, with cycle accounting.
//
// Geometry and latencies approximate the Zynq-7000 PS (Cortex-A9 r3p0 +
// PL310 L2), whose caches are always on: L1 hit ~1 cycle pipeline-visible
// cost, L2 hit ~8 cycles, DRAM ~60 cycles. Device (MMIO) accesses bypass
// the caches and pay a fixed AXI round trip.
#pragma once

#include <functional>

#include "cache/cache.hpp"
#include "util/types.hpp"

namespace minova::cache {

inline constexpr u32 kDramCycles = 60;    // L2 miss penalty to DDR
inline constexpr u32 kDeviceCycles = 35;  // uncached MMIO round trip (PS AXI)

// The caches' geometry: 32 KB 4-way L1s and a 512 KB 8-way L2, 32-byte
// lines throughout.
inline constexpr CacheConfig kL1iGeometry{
    .name = "L1I", .size_bytes = 32 * kKiB, .line_bytes = 32, .ways = 4,
    .hit_cycles = 1};
inline constexpr CacheConfig kL1dGeometry{
    .name = "L1D", .size_bytes = 32 * kKiB, .line_bytes = 32, .ways = 4,
    .hit_cycles = 1};
inline constexpr CacheConfig kL2Geometry{
    .name = "L2", .size_bytes = 512 * kKiB, .line_bytes = 32, .ways = 8,
    .hit_cycles = 8};

/// Pure timing/tag model; data movement happens in PhysMem independently.
class MemHierarchy {
 public:
  MemHierarchy()
      : l1i_(kL1iGeometry), l1d_(kL1dGeometry), l2_(kL2Geometry) {}

  /// Cost of a cached data access at physical address `pa`.
  cycles_t access_data(paddr_t pa, bool write);

  /// Cost of an instruction fetch at physical address `pa`.
  cycles_t access_ifetch(paddr_t pa);

  /// Cost of an uncached device access.
  cycles_t access_device() const { return kDeviceCycles; }

  /// Cost of a page-table-walk descriptor fetch. Cortex-A9 walks bypass L1
  /// but may hit in the outer (L2) cache, which is how TLB-miss costs stay
  /// moderate while still growing when guests thrash L2.
  cycles_t access_walk(paddr_t pa);

  /// Clean + invalidate both L1s and L2; returns the cycle cost (dirty
  /// lines pay a writeback each). Models the guest-initiated cache flush
  /// hypercall and kernel cache maintenance.
  cycles_t flush_all();

  /// Invalidate instruction cache only (e.g. after code upload).
  cycles_t invalidate_icache();

  Cache& l1i() { return l1i_; }
  Cache& l1d() { return l1d_; }
  Cache& l2() { return l2_; }
  const Cache& l1i() const { return l1i_; }
  const Cache& l1d() const { return l1d_; }
  const Cache& l2() const { return l2_; }

  void reset_stats();

 private:
  cycles_t access_through(Cache& l1, paddr_t pa, bool write);

  Cache l1i_;
  Cache l1d_;
  Cache l2_;
};

}  // namespace minova::cache
