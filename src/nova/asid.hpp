// ASID allocation with O(1) recycling and generation rollover.
//
// The Cortex-A9 CONTEXTIDR carries an 8-bit ASID, so at most 255 address
// spaces (ASID 0 is the kernel's) can be distinguished in the TLB at once.
// The original kernel bump-allocated ASIDs and silently aliased two live
// VMs after 255 creates. This allocator fixes that with the classic
// generation scheme (Linux calls it ASID "versions"):
//
//   * `release()` returns a tag to a LIFO recycle list — create/destroy
//     churn reuses the same handful of ASIDs forever and never rolls over.
//   * When the 8-bit space is truly exhausted (256th concurrently-live
//     space), the generation counter bumps and the caller must flush the
//     entire TLB once. Every tag of an older generation is now invalid:
//     holders are lazily re-tagged the next time they are switched in.
//   * Micro-TLBs need no extra work: their entries revalidate against
//     `Tlb::generation()`, which the rollover flush bumps.
//
// Fresh allocation walks 1, 2, 3, ... — byte-identical to the historical
// bump counter until the first release or rollover, which keeps the golden
// benchmark results valid.
#pragma once

#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace minova::nova {

struct AsidTag {
  u32 asid = 0;  // 1..255; 0 is reserved for the kernel
  u32 gen = 0;
};

class AsidAllocator {
 public:
  static constexpr u32 kMaxAsid = 255;

  /// O(1): a recycled tag of the current generation when one exists, else a
  /// fresh 8-bit value, else a generation rollover. When `rolled_over` comes
  /// back true the caller MUST flush the whole TLB before any tagged
  /// translation is used again — that flush is what retires every
  /// prior-generation tag still held by descheduled address spaces.
  AsidTag allocate(bool& rolled_over) {
    rolled_over = false;
    if (!recycled_.empty()) {
      const u32 a = recycled_.back();
      recycled_.pop_back();
      return {a, gen_};
    }
    if (next_fresh_ > kMaxAsid) {
      ++gen_;
      next_fresh_ = 1;
      recycled_.clear();
      rolled_over = true;
    }
    return {next_fresh_++, gen_};
  }

  /// Return a tag. Stale-generation tags are dropped — the rollover flush
  /// already reclaimed their TLB footprint and their numbers were re-issued.
  void release(const AsidTag& t) {
    if (t.gen != gen_ || t.asid == 0) return;
    MINOVA_CHECK(t.asid <= kMaxAsid);
    recycled_.push_back(t.asid);
  }

  /// Is this tag still valid (same generation as the allocator)?
  bool current(const AsidTag& t) const { return t.gen == gen_; }

  u32 generation() const { return gen_; }

 private:
  u32 next_fresh_ = 1;
  u32 gen_ = 0;
  std::vector<u32> recycled_;
};

}  // namespace minova::nova
