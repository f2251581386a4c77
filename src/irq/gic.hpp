// Generic Interrupt Controller model (GIC-390 class, as integrated in the
// Zynq-7000 MPCore).
//
// Models the distributor (per-interrupt enable/pending/active state and
// priorities) and one CPU interface (acknowledge / end-of-interrupt, behind
// a fixed priority mask). Mini-NOVA programs this interface directly; each
// vGIC masks/unmasks its VM's interrupt set here on every VM switch (paper
// §III.B) and writes EOI before injecting the virtual IRQ.
#pragma once

#include <vector>

#include "mem/address_map.hpp"
#include "util/types.hpp"

namespace minova::irq {

inline constexpr u32 kSpuriousIrq = 1023;

class Gic {
 public:
  explicit Gic(u32 num_irqs = mem::kNumIrqs);

  // ---- Distributor ----
  void enable_irq(u32 id);
  void disable_irq(u32 id);
  bool is_enabled(u32 id) const;
  void set_priority(u32 id, u8 prio);  // lower value = higher priority
  u8 priority(u32 id) const;

  /// Device-side assertion (edge semantics: latches pending).
  void raise(u32 id);
  bool is_pending(u32 id) const;

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

  /// True when some enabled interrupt is pending above the mask, for any
  /// CPU interface.
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

  /// ICCPMR at its reset value: the kernel never lowers it, so only
  /// priority-0xFF sources are masked.
  static constexpr u8 kPriorityMask = 0xFF;

  int highest_pending(u8 cpu_mask) const;  // index or -1
  bool is_candidate(u32 id) const {
    return (candidates_[id / 64] >> (id % 64)) & 1;
  }
  /// Re-derive `id`'s bit in `candidates_` after its enable, pending or
  /// active bit changed, and the line if the bit flipped.
  void refresh(u32 id);
  /// Re-derive `asserted_cpus_`. It changes only when the candidate set, or
  /// a candidate's priority or targets, changes: the mutators call it then.
  void update_line();

  std::vector<IrqState> state_;
  /// Bit i set <=> interrupt i is enabled, pending and not active: the only
  /// IDs a query visits (DESIGN.md §10.6).
  std::vector<u64> candidates_;
  /// OR of the target masks of the candidates above the priority mask: bit
  /// i set <=> CPU interface i sees an asserted interrupt (DESIGN.md §10.6).
  u8 asserted_cpus_ = 0;
  u64 raised_count_ = 0;
  u64 acked_count_ = 0;
};

}  // namespace minova::irq
