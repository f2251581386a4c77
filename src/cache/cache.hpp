// Set-associative cache model with cycle accounting.
//
// Physically-indexed, physically-tagged (PIPT), pseudo-random replacement
// (a 16-bit LFSR picks the victim way, as the A9 and PL310 generators do),
// write-back write-allocate — matching the Cortex-A9 L1 data cache and the
// PL310 L2 of the paper's platform closely enough that the *mechanism*
// behind Table III (kernel entry paths evicted by guest working sets as the
// VM count grows) is reproduced by construction, not curve-fitted.
//
// The model tracks tags and dirty bits only; data always lives in PhysMem.
// That is exact for a PIPT hierarchy with no duplicate physical mappings —
// precisely the property the paper relies on to avoid flushes on VM switch.
#pragma once

#include <string_view>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace minova::cache {

struct CacheConfig {
  std::string_view name;
  u32 size_bytes = 32 * kKiB;
  u32 line_bytes = 32;
  u32 ways = 4;
  u32 hit_cycles = 1;  // access latency on hit
};

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;
  u64 flushes = 0;
  double miss_rate() const {
    const u64 total = hits + misses;
    return total == 0 ? 0.0 : double(misses) / double(total);
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  // Eight bytes, so it returns in one register.
  struct AccessResult {
    paddr_t victim_line = 0;      // line address of the victim (if any)
    bool hit = false;
    bool writeback = false;       // a dirty victim was evicted
    bool evicted_valid = false;   // a valid (clean or dirty) victim existed
  };

  /// Look up `pa`; on miss, allocate the line in an invalid way, else in
  /// the way the LFSR picks. `write` marks the line dirty. Returns hit/miss
  /// and victim info for the next level.
  AccessResult access(paddr_t pa, bool write);

  /// The hit half of `access`, inline: on a hit mark the line dirty for a
  /// write, count the hit and return true; on a miss change nothing.
  bool try_hit(paddr_t pa, bool write) {
    const std::size_t base = set_base(pa);
    const u32 way = way_of(base, line_addr(pa));
    if (way == cfg_.ways) return false;
    if (write) tags_[base + way] |= kDirtyBit;
    ++stats_.hits;
    return true;
  }

  /// Credit `n` read hits on lines known to be present, or write hits on
  /// lines known to be dirty. Such a hit changes nothing but the hit count,
  /// so this is exactly the state those `access` calls leave.
  void credit_read_hits(u64 n) { stats_.hits += n; }

  /// Moves whenever a line can leave the cache: on every miss (its fill
  /// may evict), `invalidate_all`, `flush_all` and an `invalidate_line`
  /// that found its line. Every line present while the epoch reads E was
  /// present when it first read E (DESIGN.md §10.2).
  u64 fill_epoch() const { return fill_epoch_; }

  /// Probe without side effects.
  bool contains(paddr_t pa) const;

  /// Invalidate everything (no writeback accounting — used for reset).
  void invalidate_all();

  /// Clean+invalidate everything; returns number of dirty lines written
  /// back (the caller charges the cycles).
  u32 flush_all();

  /// Invalidate a single line by address if present; returns true if it was
  /// dirty (caller charges a writeback).
  bool invalidate_line(paddr_t pa);

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  u32 num_sets() const { return sets_; }

 private:
  // One u32 word per way, `tags_[set*ways + w]`: the line address in bits
  // 0-30 and the dirty bit in bit 31, or kInvalidTag when the way is empty.
  // Line addresses of a 32-bit physical space with lines of 4 bytes or more
  // stay below 2^30, so no valid word equals kInvalidTag. The hit scan, the
  // hottest loop in the simulator, compares a contiguous run of u32s
  // against one key and touches one host cache line per set.
  static constexpr u32 kDirtyBit = 1u << 31;
  static constexpr u32 kInvalidTag = ~0u;

  // Branchless scan over the tag row: a tag lives in at most one way, so
  // the order of assignment does not matter and the loop vectorizes.
  u32 way_of(std::size_t base, u32 tag) const {
    u32 hit_way = cfg_.ways;
    for (u32 w = 0; w < cfg_.ways; ++w)
      if ((tags_[base + w] & ~kDirtyBit) == tag) hit_way = w;
    return hit_way;
  }
  u32 set_index(paddr_t pa) const {
    return u32((pa >> line_shift_) & (sets_ - 1));
  }
  u32 line_addr(paddr_t pa) const { return pa >> line_shift_; }
  std::size_t set_base(paddr_t pa) const {
    return std::size_t(set_index(pa)) * cfg_.ways;
  }

  CacheConfig cfg_;
  u32 sets_;
  u32 line_shift_;
  u64 fill_epoch_ = 0;
  u32 lfsr_ = 0xACE1u;  // deterministic pseudo-random victim source
  std::vector<u32> tags_;  // sets_ * ways, row-major by set
  CacheStats stats_;
};

}  // namespace minova::cache
