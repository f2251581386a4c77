// ASID-tagged TLB model.
//
// The paper's §III.C relies on the Cortex-A9's address-space identifiers to
// avoid TLB flushes on VM switch: each VM gets one unique ASID, and the
// kernel simply reloads CONTEXTIDR. The TLB model therefore keys entries on
// (ASID, virtual page) with a global bit for kernel mappings, and supports
// the three maintenance operations the kernel uses: flush-all, flush-by-
// ASID and flush-by-VA.
//
// Host-side structure (DESIGN.md §10): the array of entries is still the
// fully-associative true-LRU store the simulated replacement decisions are
// defined over, but lookups no longer scan it. Each size class has a flat
// hash table of chain heads — small pages keyed on `va >> 12`, sections on
// `va >> 20`, at least 2N buckets each — and every valid slot is linked
// into its key's chain through `next_`. Chains are kept sorted by slot
// number and `lookup` merges the two chains it reads, taking the lowest
// matching slot, which is exactly the "first match in array order" the old
// linear scan produced: hit/miss sequences, LRU stamps and therefore every
// simulated cycle are bit-identical to the scanning implementation (pinned
// by the differential test against `RefTlb`).
#pragma once

#include <vector>

#include "util/types.hpp"

namespace minova::cache {

struct TlbEntry {
  u32 asid = 0;
  vaddr_t vpage = 0;   // va >> 12
  paddr_t ppage = 0;   // pa >> 12
  u32 attrs = 0;       // opaque permission summary cached by the MMU
  bool global = false; // matches any ASID (kernel mappings)
  bool large = false;  // 1 MB section entry (vpage/ppage are still 4K pages
                       // of the section base; match masks low bits)
  bool valid = false;
  u64 lru = 0;
};

struct TlbStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 flushes = 0;
  u64 asid_flushes = 0;
  u64 va_flushes = 0;
  double miss_rate() const {
    const u64 t = hits + misses;
    return t == 0 ? 0.0 : double(misses) / double(t);
  }
  double hit_rate() const {
    const u64 t = hits + misses;
    return t == 0 ? 0.0 : double(hits) / double(t);
  }
};

class Tlb {
 public:
  /// Fully-associative with `entries` entries (Cortex-A9 main TLB: 128).
  explicit Tlb(u32 entries = 128);

  /// Find a translation for (asid, va). Returns nullptr on miss.
  const TlbEntry* lookup(u32 asid, vaddr_t va);

  /// Record `n` hits on `e` without re-running the lookup: identical
  /// bookkeeping (LRU stamp + hit count) to `n` hits of `lookup`. Used by
  /// the MMU's micro-TLB, which caches the winning entry pointer and
  /// revalidates it against `generation()`, and by run crediting, which
  /// charges a page's remaining certain hits at once.
  void touch(const TlbEntry& e, u64 n = 1) {
    use_clock_ += n;
    const_cast<TlbEntry&>(e).lru = use_clock_;
    stats_.hits += n;
  }

  /// Returns the slot the entry was written to (stable for the Tlb's
  /// lifetime; invalidated as a translation by any `generation()` change).
  const TlbEntry* insert(const TlbEntry& entry);

  void flush_all();
  void flush_asid(u32 asid);
  void flush_va(vaddr_t va);  // all ASIDs, both entry sizes

  /// Bumped on every mutation of the translation contents (insert or any
  /// flush). Cached entry pointers are valid only while this is unchanged.
  u64 generation() const { return gen_; }

  const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  u32 capacity() const { return u32(entries_.size()); }
  u32 valid_count() const { return valid_count_; }

  /// Raw slot array, for the differential test against `RefTlb`.
  const std::vector<TlbEntry>& entry_array() const { return entries_; }

 private:
  static bool matches(const TlbEntry& e, u32 asid, vaddr_t va);

  static constexpr u16 kNil = 0xFFFF;  // end of chain; above every slot
  static u32 key(const TlbEntry& e) {
    return e.large ? u32(e.vpage >> 8) : u32(e.vpage);
  }
  u16& head(bool large, u32 k) {
    return (large ? sect_head_ : page_head_)[(k * 0x9E37'79B1u) >> shift_];
  }
  // A valid slot lives in exactly one chain: its size class's chain for
  // its key. Chains stay sorted by slot.
  void chain_add(u32 slot);
  void chain_remove(u32 slot);
  /// Invalidate the entries of the chain at `link` whose key is `k`.
  void flush_chain(u16* link, u32 k);

  std::vector<TlbEntry> entries_;
  std::vector<u16> next_;  // per slot: the next slot in its chain
  std::vector<u16> page_head_;
  std::vector<u16> sect_head_;
  u32 shift_;  // 32 - log2(buckets per size class)
  u32 valid_count_ = 0;
  u64 use_clock_ = 0;
  u64 gen_ = 0;
  TlbStats stats_;
};

}  // namespace minova::cache
