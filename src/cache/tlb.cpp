#include "cache/tlb.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace minova::cache {

Tlb::Tlb(u32 entries)
    : entries_(entries), next_(entries),
      shift_(32 - u32(std::bit_width(2 * entries - 1))) {
  MINOVA_CHECK(entries > 0 && entries < kNil);
  page_head_.assign(std::size_t(1) << (32 - shift_), kNil);
  sect_head_ = page_head_;
}

bool Tlb::matches(const TlbEntry& e, u32 asid, vaddr_t va) {
  if (!e.valid) return false;
  if (!e.global && e.asid != asid) return false;
  const vaddr_t vpage = va >> 12;
  if (e.large) {
    // 1 MB section: compare the top 12 bits (va >> 20).
    return (e.vpage >> 8) == (vpage >> 8);
  }
  return e.vpage == vpage;
}

void Tlb::chain_add(u32 slot) {
  const TlbEntry& e = entries_[slot];
  u16* link = &head(e.large, key(e));
  while (*link < slot) link = &next_[*link];
  next_[slot] = *link;
  *link = u16(slot);
}

void Tlb::chain_remove(u32 slot) {
  const TlbEntry& e = entries_[slot];
  u16* link = &head(e.large, key(e));
  for (; *link != slot; link = &next_[*link]) MINOVA_CHECK(*link != kNil);
  *link = next_[slot];
}

const TlbEntry* Tlb::lookup(u32 asid, vaddr_t va) {
  // Candidates: the small-page chain for va>>12 and the section chain for
  // va>>20. Both are sorted by slot (kNil above all); merging them visits
  // candidates in ascending slot order so the winner is the same "first
  // matching slot" the linear scan would have found. Colliding keys in a
  // chain fail `matches`.
  u32 p = head(false, u32(va >> 12));
  u32 s = head(true, u32(va >> 20));
  for (u32 slot; (slot = std::min(p, s)) != kNil;) {
    (slot == p ? p : s) = next_[slot];
    TlbEntry& e = entries_[slot];
    if (matches(e, asid, va)) {
      e.lru = ++use_clock_;
      ++stats_.hits;
      return &e;
    }
  }
  ++stats_.misses;
  return nullptr;
}

const TlbEntry* Tlb::insert(const TlbEntry& entry) {
  MINOVA_CHECK(entry.valid);
  // Replace an existing entry for the same page first (re-walk after a
  // permission update), else an invalid slot, else LRU. Replacement
  // candidates all live in one chain (same vpage, same size class); the
  // chain walk in slot order reproduces the old full-array scan.
  TlbEntry* slot = nullptr;
  u32 slot_idx = 0;
  for (u32 s = head(entry.large, key(entry)); s != kNil; s = next_[s]) {
    TlbEntry& e = entries_[s];
    if (e.vpage == entry.vpage && (e.global || e.asid == entry.asid)) {
      slot = &e;
      slot_idx = s;
      break;
    }
  }
  if (slot == nullptr && valid_count_ < entries_.size()) {
    for (u32 s = 0; s < u32(entries_.size()); ++s) {
      if (!entries_[s].valid) {
        slot = &entries_[s];
        slot_idx = s;
        break;
      }
    }
  }
  if (slot == nullptr) {
    slot = &entries_.front();
    slot_idx = 0;
    for (u32 s = 0; s < u32(entries_.size()); ++s) {
      if (entries_[s].lru < slot->lru) {
        slot = &entries_[s];
        slot_idx = s;
      }
    }
  }
  if (slot->valid)
    chain_remove(slot_idx);
  else
    ++valid_count_;
  *slot = entry;
  slot->lru = ++use_clock_;
  chain_add(slot_idx);
  ++gen_;
  return slot;
}

void Tlb::flush_all() {
  for (auto& e : entries_) e.valid = false;
  std::fill(page_head_.begin(), page_head_.end(), kNil);
  std::fill(sect_head_.begin(), sect_head_.end(), kNil);
  valid_count_ = 0;
  ++stats_.flushes;
  ++gen_;
}

void Tlb::flush_asid(u32 asid) {
  for (u32 s = 0; s < u32(entries_.size()); ++s) {
    TlbEntry& e = entries_[s];
    if (e.valid && !e.global && e.asid == asid) {
      chain_remove(s);
      e.valid = false;
      --valid_count_;
    }
  }
  ++stats_.asid_flushes;
  ++gen_;
}

void Tlb::flush_chain(u16* link, u32 k) {
  while (*link != kNil) {
    TlbEntry& e = entries_[*link];
    if (key(e) != k) {
      link = &next_[*link];
      continue;
    }
    *link = next_[*link];
    e.valid = false;
    --valid_count_;
  }
}

void Tlb::flush_va(vaddr_t va) {
  // Both size classes, all ASIDs.
  flush_chain(&head(false, u32(va >> 12)), u32(va >> 12));
  flush_chain(&head(true, u32(va >> 20)), u32(va >> 20));
  ++stats_.va_flushes;
  ++gen_;
}

}  // namespace minova::cache
