// Kernel heap: slab-pooled allocator over the kernel's physical heap window.
//
// Holds vCPU save areas, vGIC tables, IVC rings, PD control blocks and (via
// its own pool) the page tables. Objects are cache-line aligned so per-VM
// structures never share lines — the same discipline a real kernel uses to
// keep switch costs predictable.
//
// Allocation model (NOVA/hedron-style fixed-class pools behind a bump
// facade):
//   * First-fit is a LIFO free list per 64-byte size class; the bump
//     watermark only moves when no recycled block fits. A workload that
//     never frees therefore sees the *byte-identical* address sequence of
//     the original bump allocator — existing golden results stay valid.
//     Block records sit in a vector indexed by address / 64 (DESIGN.md
//     §12.1), so every lookup is an index.
//   * `free()` poisons the block (when a PhysMem is attached), checks for
//     double frees, and recycles it into its class list. Reuse verifies the
//     poison is intact (use-after-free oracle) and re-zeroes the block.
//   * Control blocks (PD descriptors + portal tables) carve *downward* from
//     the top of the window so they cannot perturb the bump sequence.
//   * `try_alloc()` is the non-aborting variant: exhaustion returns 0
//     instead of tripping MINOVA_CHECK, so callers can fail gracefully.
#pragma once

#include <vector>

#include "nova/kmem.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace minova::mem {
class PhysMem;
}

namespace minova::nova {

class KernelHeap {
 public:
  /// Free-list granularity; every block is rounded up to a multiple.
  static constexpr u32 kClassAlign = 64;
  /// Word written over freed blocks (and verified on recycle).
  static constexpr u32 kPoisonWord = 0xDEADBEEFu;

  KernelHeap(paddr_t base, u32 size);

  KernelHeap(const KernelHeap&) = delete;
  KernelHeap& operator=(const KernelHeap&) = delete;

  /// Attach the physical memory backing this window: enables debug
  /// poisoning of freed blocks and use-after-free verification on reuse.
  /// Pure host-side writes — no simulated cost.
  void attach_ram(mem::PhysMem* ram) { ram_ = ram; }

  /// Allocate, aborting on exhaustion (legacy contract). `align` is a power
  /// of two no smaller than kClassAlign, so every block starts on a slot.
  paddr_t alloc(u32 bytes, u32 align = 64);
  /// Allocate, returning 0 on exhaustion instead of aborting.
  paddr_t try_alloc(u32 bytes, u32 align = 64);
  /// Return a block to its size-class pool. Aborts on a pointer that was
  /// never allocated here and on double free.
  void free(paddr_t pa);

  /// Control-region allocation: carves downward from the top of the window
  /// (PD control blocks), leaving the upward bump sequence untouched.
  paddr_t alloc_ctrl(u32 bytes);
  void free_ctrl(paddr_t pa);

  // ---- watermark accessors (legacy bump semantics) ----
  u32 bytes_used() const { return u32(next_ - base_); }
  u32 bytes_free() const { return u32(ctrl_next_ - next_); }
  paddr_t base() const { return base_; }

  // ---- pool accounting (leak oracles, benches) ----
  /// Bytes held by live blocks (size-class rounded), both regions.
  u32 bytes_live() const { return objects_.bytes_live + ctrl_.bytes_live; }
  u32 live_blocks() const { return objects_.live; }
  u32 ctrl_live() const { return ctrl_.live; }
  /// High-water marks of the two bump pointers. Neither pointer ever
  /// retreats (frees recycle into the pools), so each mark is the pointer's
  /// current extent; churn with recycling keeps both flat.
  u32 high_water() const { return bytes_used(); }
  u32 ctrl_high_water() const { return u32(base_ + size_ - ctrl_next_); }
  u64 alloc_count() const { return alloc_count_; }
  u64 free_count() const { return free_count_; }
  u64 recycle_count() const { return recycle_count_; }

  static u32 size_class(u32 bytes) {
    return u32(align_up(bytes == 0 ? 1 : bytes, kClassAlign));
  }

 private:
  struct Block {
    u32 bytes = 0;        // requested size (poison/scrub extent)
    u32 class_bytes = 0;  // size class; 0 = no block starts at this slot
    bool live = false;
  };
  /// One allocation region. `slots` holds a record per 64-byte slot,
  /// indexed by the distance from the region's origin (the window base for
  /// objects, the window top for control blocks) / 64; `free` is one LIFO
  /// list per size class, indexed by class / 64. Both grow with the
  /// region's watermark, so a lookup is an index, never a search.
  struct Region {
    Region(paddr_t o, bool down) : origin(o), downward(down) {}

    paddr_t origin;
    bool downward;
    std::vector<Block> slots;
    std::vector<std::vector<paddr_t>> free;
    u32 bytes_live = 0;
    u32 live = 0;

    /// Distance of `pa` from the origin; wraps to a huge value outside the
    /// region, so it then indexes no slot.
    u32 offset(paddr_t pa) const {
      return downward ? u32(origin - pa) : u32(pa - origin);
    }
  };

  paddr_t pool_alloc(u32 bytes, u32 align, bool abort_on_exhaustion);
  paddr_t recycle(Region& r, u32 cls, u32 align);
  void record(Region& r, paddr_t pa, u32 bytes, u32 cls);
  void release(Region& r, paddr_t pa, const char* not_owned);
  void poison(paddr_t pa, u32 bytes);
  void verify_poison_and_scrub(paddr_t pa, u32 bytes);

  paddr_t base_;
  u32 size_;
  paddr_t next_;       // upward bump pointer (object region)
  paddr_t ctrl_next_;  // downward bump pointer (control region)
  mem::PhysMem* ram_ = nullptr;

  Region objects_;
  Region ctrl_;

  u64 alloc_count_ = 0;
  u64 free_count_ = 0;
  u64 recycle_count_ = 0;
};

}  // namespace minova::nova
