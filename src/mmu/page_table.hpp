// Page table construction in simulated physical memory.
//
// `PageTableAllocator` carves L1/L2 tables out of a kernel-owned physical
// region; `AddressSpace` is the per-VM (or kernel) table-manipulation
// handle Mini-NOVA uses for map/unmap/protect. All descriptor writes go to
// PhysMem so the walker (and therefore the experiments) see exactly what
// the software built.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "mem/phys_mem.hpp"
#include "mmu/descriptors.hpp"
#include "util/types.hpp"

namespace minova::mmu {

/// Pool allocator over a physical window reserved for translation tables.
/// Freed L1/L2 tables recycle LIFO through per-kind free lists; the bump
/// watermark only moves when the lists are empty, so allocation order (and
/// therefore table placement) is unchanged for workloads that never free.
class PageTableAllocator {
 public:
  PageTableAllocator(mem::PhysMem& ram, paddr_t base, u32 size);

  /// Allocate a zeroed, 16 KB-aligned first-level table.
  paddr_t alloc_l1();
  /// Allocate a zeroed, 1 KB-aligned second-level table.
  paddr_t alloc_l2();
  /// Return a table to its pool. Aborts on a pointer not allocated here, a
  /// kind mismatch, or a double free.
  void free_l1(paddr_t pa);
  void free_l2(paddr_t pa);

  /// Pool watermark (never decreases; churn with recycling keeps it flat).
  u32 bytes_used() const { return next_ - base_; }
  /// Bytes held by live (allocated, not freed) tables — the leak oracle.
  u32 bytes_live() const { return bytes_live_; }

 private:
  paddr_t alloc(u32 bytes, u32 align, bool is_l1);
  void free_table(paddr_t pa, bool is_l1, u32 bytes);

  struct Table {
    bool is_l1 = false;
    bool live = false;
  };

  mem::PhysMem& ram_;
  paddr_t base_;
  u32 size_;
  paddr_t next_;
  std::map<paddr_t, Table> tables_;
  std::vector<paddr_t> free_l1_;
  std::vector<paddr_t> free_l2_;
  u32 bytes_live_ = 0;
};

struct MapAttrs {
  Ap ap = Ap::kFullAccess;
  u32 domain = 0;
  bool ng = true;    // non-global: tagged with the owning ASID
  bool xn = false;
};

/// Handle over one translation table tree rooted at an L1 table. The space
/// owns its tables: destruction returns the L1 and every materialized L2 to
/// the allocator's pools (the allocator must outlive the space).
class AddressSpace {
 public:
  AddressSpace(mem::PhysMem& ram, PageTableAllocator& alloc);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  paddr_t root() const { return l1_base_; }

  /// Map a 1 MB section. `va` and `pa` must be 1 MB aligned.
  void map_section(vaddr_t va, paddr_t pa, const MapAttrs& attrs);

  /// Map a single 4 KB page, materializing an L2 table if needed. The L2
  /// table inherits `attrs.domain` (domains live in the L1 descriptor).
  void map_page(vaddr_t va, paddr_t pa, const MapAttrs& attrs);

  /// Map a range with 4 KB granularity. `len` rounded up to pages.
  void map_range(vaddr_t va, paddr_t pa, u32 len, const MapAttrs& attrs);

  /// Remove the mapping covering `va` (section or page). Returns true if a
  /// mapping existed.
  bool unmap_page(vaddr_t va);

  /// Change permissions on an existing 4 KB page mapping.
  bool protect_page(vaddr_t va, Ap ap);

  /// Materialize (if needed) the second-level table covering `va` without
  /// mapping anything — the "guest page table creation" hypercall primitive.
  /// Returns false when the megabyte is already covered by a section.
  bool ensure_l2(vaddr_t va, u32 domain);

  /// Read back the translation for `va` without permission checks (test and
  /// debugging aid; also used by the kernel to validate guest arguments).
  std::optional<paddr_t> translate_raw(vaddr_t va) const;

  /// True when the L1 entry covering `va` is present (a section or an L2
  /// table pointer). Lets read-only scanners (fuzzer oracles) skip empty
  /// megabytes without issuing per-page walks.
  bool l1_present(vaddr_t va) const;

 private:
  u32 read_l1(u32 index) const;
  void write_l1(u32 index, u32 raw);

  mem::PhysMem& ram_;
  PageTableAllocator& alloc_;
  paddr_t l1_base_;
  std::vector<paddr_t> l2_tables_;  // L2s materialized by this space
};

}  // namespace minova::mmu
