// Generic Interrupt Controller model (GIC-390 class, as integrated in the
// Zynq-7000 MPCore).
//
// Models the distributor (per-interrupt enable/pending/active state and
// priorities) and one CPU interface (acknowledge / end-of-interrupt /
// priority masking). Mini-NOVA programs this interface directly; each vGIC
// masks/unmasks its VM's interrupt set here on every VM switch (paper
// §III.B) and writes EOI before injecting the virtual IRQ.
#pragma once

#include <functional>
#include <vector>

#include "mem/address_map.hpp"
#include "util/types.hpp"

namespace minova::irq {

inline constexpr u32 kSpuriousIrq = 1023;

class Gic {
 public:
  /// `irq_line` is asserted/deasserted towards the CPU as the highest
  /// pending-and-enabled priority rises above/falls below the mask.
  using IrqLine = std::function<void(bool)>;

  explicit Gic(u32 num_irqs = mem::kNumIrqs);

  void set_irq_line(IrqLine line) { irq_line_ = std::move(line); }

  // ---- Distributor ----
  void enable_irq(u32 id);
  void disable_irq(u32 id);
  bool is_enabled(u32 id) const;
  void set_priority(u32 id, u8 prio);  // lower value = higher priority
  u8 priority(u32 id) const;

  /// Device-side assertion (edge semantics: latches pending).
  void raise(u32 id);
  bool is_pending(u32 id) const;
  void clear_pending(u32 id);

  /// Per-interrupt CPU target mask (ICDIPTR). Bit i routes the interrupt
  /// to CPU interface i; reset value targets CPU0 only, which is the whole
  /// routing story on a unicore system. The SMP kernel writes real masks
  /// here (svc_assign_pl_irq targets the owning VM's core) and acknowledges
  /// through the `_for` variants below with its own core's bit.
  void set_target_mask(u32 id, u8 mask);
  u8 target_mask(u32 id) const;

  // ---- CPU interface ----
  /// Acknowledge the highest-priority pending enabled interrupt: marks it
  /// active, clears pending, returns its ID (or kSpuriousIrq).
  u32 acknowledge() { return acknowledge_for(0xFFu); }
  /// Same, restricted to interrupts whose target mask intersects
  /// `cpu_mask` (one bit per CPU interface).
  u32 acknowledge_for(u8 cpu_mask);
  /// End of interrupt: drops the active state.
  void eoi(u32 id);
  void set_priority_mask(u8 mask) { priority_mask_ = mask; update_line(); }

  /// True when some enabled interrupt is pending above the mask (the state
  /// of the nIRQ line towards the core).
  bool irq_asserted() const { return asserted_cpus_ != 0; }
  /// Per-CPU view of the same: pending, enabled, above the mask and
  /// targeted at a CPU in `cpu_mask`.
  bool irq_asserted_for(u8 cpu_mask) const {
    return (asserted_cpus_ & cpu_mask) != 0;
  }

  u32 num_irqs() const { return u32(state_.size()); }

  // Stats for tests.
  u64 raised_count() const { return raised_count_; }
  u64 acked_count() const { return acked_count_; }

 private:
  struct IrqState {
    bool enabled = false;
    bool pending = false;
    bool active = false;
    u8 prio = 0xA0;
    u8 targets = 0x01;  // ICDIPTR reset: everything routes to CPU0
  };

  int highest_pending(u8 cpu_mask) const;  // index or -1
  /// Re-derive `id`'s bit in `candidates_` after its enable, pending or
  /// active bit changed.
  void refresh(u32 id);
  /// Re-derive `asserted_cpus_` and drive the line on a change. Every
  /// mutator ends here, so the queries above read a settled set.
  void update_line();

  std::vector<IrqState> state_;
  /// Bit i set <=> interrupt i is enabled, pending and not active: the only
  /// IDs a query visits (DESIGN.md §10.6).
  std::vector<u64> candidates_;
  u8 priority_mask_ = 0xFF;  // 0xFF = no masking
  /// OR of the target masks of the candidates above the priority mask: bit
  /// i set <=> CPU interface i sees an asserted interrupt (DESIGN.md §10.6).
  u8 asserted_cpus_ = 0;
  IrqLine irq_line_;
  u64 raised_count_ = 0;
  u64 acked_count_ = 0;
};

}  // namespace minova::irq
