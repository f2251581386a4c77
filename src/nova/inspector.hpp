// KernelInspector — a read-only facade over live kernel state.
//
// The fuzzer's invariant oracles (src/fuzz/invariants.*) need to see the
// kernel's internals — protection domains, scheduler queues, IRQ routing
// tables, the current PD — without any ability to mutate them and without
// charging simulated cycles. This facade is the one sanctioned window:
// every accessor is const and returns const views, so an oracle physically
// cannot perturb the run it is observing. That property is what makes
// invariant checks safe to run after *every* trap exit and VM switch
// without breaking bit-identical seed replay.
//
// The facade is a friend of Kernel rather than a pile of public accessors:
// introspection needs stay in one audited place instead of widening the
// kernel's real interface.
#pragma once

#include "nova/kernel.hpp"

namespace minova::nova {

class KernelInspector {
 public:
  explicit KernelInspector(const Kernel& kernel) : k_(kernel) {}

  u32 pd_count() const { return u32(k_.pds_.size()); }
  const ProtectionDomain* pd(u32 idx) const {
    return idx < k_.pds_.size() ? k_.pds_[idx].get() : nullptr;
  }
  /// The PD running on the *active* core (the one the shared cpu::Core
  /// currently models). Per-core currents are under `core(i).current_vm()`.
  const ProtectionDomain* current() const {
    return k_.cores_[k_.active_core_].current;
  }
  const ProtectionDomain* manager() const { return k_.manager_pd_; }

  /// True while the synchronous manager service runs inside a client's
  /// hardware-task hypercall: mapping/PRR tables are legitimately mid-update
  /// in this window, so mapping-level oracles defer until the switch back.
  /// The manager only ever executes inline on the invoking core, so checking
  /// the active core's current is exact even under SMP.
  bool in_manager_service() const {
    return k_.manager_pd_ != nullptr && current() == k_.manager_pd_;
  }

  PdId irq_owner(u32 irq) const {
    return irq < mem::kNumIrqs ? k_.irq_owner_[irq] : kInvalidPd;
  }

  /// Core 0's run queue — kept for unicore oracles/tests; SMP-aware code
  /// should sweep `core(i).runqueue()` for i in [0, num_cores()).
  const Scheduler& scheduler() const { return k_.cores_[0].sched; }

  // ---- SMP topology -------------------------------------------------------
  u32 num_cores() const { return u32(k_.cores_.size()); }
  u32 active_core() const { return k_.active_core_; }
  u64 tlb_epoch() const { return k_.tlb_epoch_; }
  u64 shootdowns_sent() const { return k_.shootdowns_sent_; }

  /// Read-only window onto one simulated core. CoreContext members are
  /// public, so the view only needs friend access at construction time
  /// (fetching the element out of `Kernel::cores_`).
  class CoreView {
   public:
    CoreView(const CoreContext& cc, Platform& plat) : cc_(cc), plat_(plat) {}

    u32 id() const { return cc_.id; }
    const ProtectionDomain* current_vm() const { return cc_.current; }
    const Scheduler& runqueue() const { return cc_.sched; }
    /// Generation counter of the micro-TLB on this core's lane: bumps on
    /// every flush, local or shootdown-driven. A cross-core shootdown is
    /// observable as a remote core's generation advancing when the IPI
    /// drains.
    u64 utlb_generation() const {
      return plat_.lane(cc_.id).mmu().utlb_epoch();
    }
    cycles_t local_now() const { return cc_.local_now; }
    /// kIpiTlbShootdown entries still in flight to this core (the
    /// completion-accounting oracle balances sent against acked + these).
    u64 pending_shootdowns() const {
      u64 n = 0;
      for (const auto& ipi : cc_.ipis)
        if (ipi.kind == IpiKind::kIpiTlbShootdown) ++n;
      return n;
    }
    u64 shootdown_ack_epoch() const { return cc_.shootdown_ack_epoch; }
    u64 ipis_sent() const { return cc_.ipis_sent; }
    u64 ipis_received() const { return cc_.ipis_received; }
    u64 shootdowns_acked() const { return cc_.shootdowns_acked; }
    u64 steals() const { return cc_.steals; }
    u64 irq_traps() const { return cc_.irq_traps; }
    u64 vm_switches() const { return cc_.vm_switches; }

   private:
    const CoreContext& cc_;
    Platform& plat_;
  };
  /// Out-of-range ids clamp to core 0 so oracle sweeps can't fault.
  CoreView core(u32 i) const {
    return CoreView(k_.cores_[i < k_.cores_.size() ? i : 0], k_.platform_);
  }

  const mmu::AddressSpace* kernel_space() const {
    return k_.kernel_space_.get();
  }
  const KernelConfig& config() const { return k_.cfg_; }

  // `platform_` is a reference member, so this stays non-const through a
  // const Kernel. Oracles use it strictly for const queries (GIC enable
  // bits, TLB entry array, PRR state); nothing here charges cycles.
  Platform& platform() const { return k_.platform_; }

  u64 vm_switches() const { return k_.vm_switch_count(); }
  u64 hypercalls() const { return k_.hypercall_count(); }

  /// Kernel-heap accounting (slab pools): the object-leak oracle compares
  /// live bytes across VM create/destroy cycles.
  const KernelHeap& heap() const { return k_.heap_; }

  /// Current ASID generation + allocator view (live-ASID uniqueness oracle).
  u32 asid_generation() const { return k_.asid_alloc_.generation(); }
  u64 asid_rollovers() const { return k_.asid_rollovers_; }
  u64 vms_destroyed() const { return k_.vms_destroyed_; }

  u32 channel_count() const { return u32(k_.channels_.size()); }
  /// Read-only view of one IVC channel (peer-death/rebind oracles).
  const IvcChannel* channel(u32 id) const {
    return id < k_.channels_.size() ? k_.channels_[id].get() : nullptr;
  }

  /// The supervisor subsystem, or nullptr when KernelConfig::supervisor is
  /// off — the sv-* oracles are vacuous then.
  const Supervisor* supervisor() const { return k_.sup_.get(); }

 private:
  const Kernel& k_;
};

}  // namespace minova::nova
