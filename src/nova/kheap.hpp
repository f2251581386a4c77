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
//   * `free()` poisons the block (when a PhysMem is attached), checks for
//     double frees, and recycles it into its class list. Reuse verifies the
//     poison is intact (use-after-free oracle) and re-zeroes the block.
//   * Control blocks (PD descriptors + portal tables) carve *downward* from
//     the top of the window so they cannot perturb the bump sequence.
//   * `try_alloc()` is the non-aborting variant: exhaustion returns 0
//     instead of tripping MINOVA_CHECK, so callers can fail gracefully.
#pragma once

#include <map>
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

  /// Allocate, aborting on exhaustion (legacy contract).
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
  u32 bytes_live() const { return bytes_live_ + ctrl_bytes_live_; }
  u32 live_blocks() const { return live_blocks_; }
  u32 ctrl_live() const { return ctrl_live_; }
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
    u32 class_bytes = 0;  // size-class key for the free list
    bool live = false;
  };
  using Registry = std::map<paddr_t, Block>;
  using FreeLists = std::map<u32, std::vector<paddr_t>>;

  paddr_t pool_alloc(u32 bytes, u32 align, bool abort_on_exhaustion);
  paddr_t recycle_from(FreeLists& lists, Registry& blocks, u32 cls, u32 align);
  void release_into(FreeLists& lists, Registry& blocks, paddr_t pa,
                    const char* region);
  void poison(paddr_t pa, u32 bytes);
  void verify_poison_and_scrub(paddr_t pa, u32 bytes);

  paddr_t base_;
  u32 size_;
  paddr_t next_;       // upward bump pointer (object region)
  paddr_t ctrl_next_;  // downward bump pointer (control region)
  mem::PhysMem* ram_ = nullptr;

  Registry blocks_;
  FreeLists free_lists_;
  Registry ctrl_blocks_;
  FreeLists ctrl_free_;

  u32 bytes_live_ = 0;
  u32 ctrl_bytes_live_ = 0;
  u32 live_blocks_ = 0;
  u32 ctrl_live_ = 0;
  u64 alloc_count_ = 0;
  u64 free_count_ = 0;
  u64 recycle_count_ = 0;
};

}  // namespace minova::nova
