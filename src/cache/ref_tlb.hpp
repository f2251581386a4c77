// Reference TLB: the pre-fast-path linear-scan implementation, kept
// verbatim as the behavioral golden model for the hash-indexed `Tlb`.
//
// `Tlb` (tlb.hpp) is required to produce bit-identical hit/miss sequences,
// replacement decisions and statistics to this implementation — that is
// the invariant that lets host-side lookup cost drop without moving a
// single simulated cycle (DESIGN.md §10). The differential test
// (tests/cache/tlb_diff_test.cpp) drives both with randomized traces and
// compares entry arrays slot-for-slot, and tests/mmu/utlb_diff_test.cpp
// runs it in lockstep with `Mmu::translate`'s micro-TLB path.
//
// Do not optimize this class: its value is being the O(N) original.
#pragma once

#include <vector>

#include "cache/tlb.hpp"
#include "util/assert.hpp"

namespace minova::cache {

class RefTlb {
 public:
  explicit RefTlb(u32 entries = 128) { entries_.resize(entries); }

  const TlbEntry* lookup(u32 asid, vaddr_t va) {
    for (auto& e : entries_) {
      if (matches(e, asid, va)) {
        e.lru = ++use_clock_;
        ++stats_.hits;
        return &e;
      }
    }
    ++stats_.misses;
    return nullptr;
  }

  const TlbEntry* insert(const TlbEntry& entry) {
    MINOVA_CHECK(entry.valid);
    // Replace an existing entry for the same page first (re-walk after a
    // permission update), else an invalid slot, else LRU.
    TlbEntry* slot = nullptr;
    for (auto& e : entries_) {
      if (e.valid && e.vpage == entry.vpage && e.large == entry.large &&
          (e.global || e.asid == entry.asid)) {
        slot = &e;
        break;
      }
    }
    if (slot == nullptr) {
      for (auto& e : entries_) {
        if (!e.valid) {
          slot = &e;
          break;
        }
      }
    }
    if (slot == nullptr) {
      slot = &entries_.front();
      for (auto& e : entries_)
        if (e.lru < slot->lru) slot = &e;
    }
    *slot = entry;
    slot->lru = ++use_clock_;
    return slot;
  }

  void flush_all() {
    for (auto& e : entries_) e.valid = false;
    ++stats_.flushes;
  }

  void flush_asid(u32 asid) {
    for (auto& e : entries_)
      if (e.valid && !e.global && e.asid == asid) e.valid = false;
    ++stats_.asid_flushes;
  }

  void flush_va(vaddr_t va) {
    const vaddr_t vpage = va >> 12;
    for (auto& e : entries_) {
      if (!e.valid) continue;
      const bool hit =
          e.large ? (e.vpage >> 8) == (vpage >> 8) : e.vpage == vpage;
      if (hit) e.valid = false;
    }
    ++stats_.va_flushes;
  }

  const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  u32 capacity() const { return u32(entries_.size()); }
  u32 valid_count() const {
    u32 n = 0;
    for (const auto& e : entries_)
      if (e.valid) ++n;
    return n;
  }
  const std::vector<TlbEntry>& entry_array() const { return entries_; }

 private:
  static bool matches(const TlbEntry& e, u32 asid, vaddr_t va) {
    if (!e.valid) return false;
    if (!e.global && e.asid != asid) return false;
    const vaddr_t vpage = va >> 12;
    if (e.large) return (e.vpage >> 8) == (vpage >> 8);
    return e.vpage == vpage;
  }

  std::vector<TlbEntry> entries_;
  u64 use_clock_ = 0;
  TlbStats stats_;
};

}  // namespace minova::cache
