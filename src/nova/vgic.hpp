// Virtual Generic Interrupt Controller (paper §III.B, Fig. 2).
//
// One vGIC per VM. It keeps the record list of the interrupts the VM uses
// (enabled / pending state per IRQ source), the entry address of the VM's
// IRQ handler, and performs the physical GIC mask/unmask dance on every VM
// switch: outgoing VM's sources are masked, incoming VM's enabled sources
// unmasked. Injection forces the VM to its IRQ entry with the IRQ number as
// argument; pending state survives while the VM is descheduled (§IV.D).
//
// The record list lives in kernel memory: walking it on switches is real
// memory traffic, which is how the IRQ-path costs react to cache pressure.
#pragma once

#include <array>

#include "cpu/core.hpp"
#include "irq/gic.hpp"
#include "nova/kheap.hpp"
#include "util/types.hpp"

namespace minova::nova {

struct VirqRecord {
  u32 irq = 0;          // physical GIC source number
  bool enabled = false;
  bool pending = false;
};

class VGic {
 public:
  static constexpr u32 kMaxEntries = 16;

  /// When `lazy_area` is set, the kernel-memory record list is not
  /// allocated until the first charged operation touches it (lazy VM boot:
  /// a VM that never takes an interrupt never pays for the table). The
  /// area is returned to the heap on destruction.
  VGic(KernelHeap& heap, irq::Gic& gic, bool lazy_area = false);
  ~VGic();

  VGic(const VGic&) = delete;
  VGic& operator=(const VGic&) = delete;

  /// Register an IRQ source for this VM (idempotent). Returns false when
  /// the record list is full.
  bool register_irq(u32 irq);
  bool is_registered(u32 irq) const { return find(irq) != nullptr; }

  /// Guest-controlled virtual enable state (via hypercalls).
  void enable(u32 irq);
  void disable(u32 irq);
  bool is_enabled(u32 irq) const;

  /// Latch a virtual interrupt (from the physical handler or a virtual
  /// device); delivered when the VM runs.
  void set_pending(u32 irq);
  /// Latch + charge the record-list update in kernel memory (the kernel's
  /// physical-IRQ routing path writes the owner VM's vIRQ list).
  void set_pending_charged(cpu::Core& core, u32 irq);
  bool any_deliverable() const;
  /// Highest-priority (lowest-numbered) pending+enabled vIRQ; clears its
  /// pending state. Returns false when none.
  bool take_pending(u32& irq_out);
  /// take_pending + charge the list scan and the IRQ-entry word lookup —
  /// per-VM kernel data that goes cold while other VMs run, the mechanism
  /// behind the PL IRQ entry growth of Table III.
  bool take_pending_charged(cpu::Core& core, u32& irq_out);
  /// Charge a registration lookup against this vGIC's record list (two
  /// words: the distribution scan of Fig. 6).
  void charge_lookup(cpu::Core& core) const;

  /// VM's registered IRQ handler entry point.
  void set_entry(vaddr_t entry) { entry_ = entry; }
  vaddr_t entry() const { return entry_; }

  /// Physical GIC reprogramming on VM switch (charges one device access
  /// per touched source plus the record-list walk in kernel memory).
  /// `skip(irq)` exempts a source from the mask sweep — the kernel passes
  /// its one masking rule, Kernel::irq_live_on_sibling, so switching one
  /// core never clobbers a source live on a sibling core (on one core it
  /// never skips).
  template <typename Skip>
  void mask_all_physical(cpu::Core& core, Skip skip) {
    touch_list(core);
    for (const auto& r : records_) {
      if (r.irq == 0 || r.irq >= gic_.num_irqs()) continue;  // virtual-only
      if (skip(r.irq)) continue;  // live on a sibling core
      gic_.disable_irq(r.irq);
      core.spend(core.caches().access_device());  // GIC distributor write
    }
  }
  void unmask_enabled_physical(cpu::Core& core);

  u32 registered_count() const;

  /// Read-only view of the record list (introspection / fuzzer oracles).
  /// Slots with `irq == 0` are empty.
  const std::array<VirqRecord, kMaxEntries>& records() const {
    return records_;
  }

  /// Lazy-boot introspection: has the kernel-memory record list been
  /// materialized yet? (Leak oracles count one heap block per built vGIC.)
  bool has_area() const { return list_area_ != 0; }

 private:
  const VirqRecord* find(u32 irq) const;
  VirqRecord* find(u32 irq);
  void touch_list(cpu::Core& core) const;
  /// Materialize the record list on first charged use (no-op when eager).
  void ensure_area() const;

  irq::Gic& gic_;
  KernelHeap* heap_;
  mutable paddr_t list_area_;
  std::array<VirqRecord, kMaxEntries> records_{};
  vaddr_t entry_ = 0;
};

}  // namespace minova::nova
