// The narrow kernel interface hypercall handlers program against.
//
// Handler units (hc_mem.cpp, hc_irq.cpp, hc_io.cpp, hc_hwtask.cpp) do not
// get friend access to `Kernel`; they receive a `KernelOps&` exposing only
// the state a handler legitimately needs: the core, the platform, PD
// lookup, the VM-switch primitive for the synchronous manager invocation,
// the kernel-owned I/O state (SD image, IVC channels) and the
// Table III sampling marks. Everything else — scheduling, code layout,
// boot, trap choreography — stays private to the kernel.
#pragma once

#include <vector>

#include "nova/guest_iface.hpp"
#include "nova/pd.hpp"

namespace minova {
class Platform;
}

namespace minova::nova {

class Kernel;
class IvcChannel;
class HwService;
class Supervisor;

class KernelOps {
 public:
  explicit KernelOps(Kernel& kernel) : kernel_(kernel) {}

  // ---- execution environment ----
  Platform& platform();
  cpu::Core& core();
  GuestContext make_ctx(ProtectionDomain& pd);

  // ---- protection domains ----
  ProtectionDomain* pd_by_id(PdId id);
  ProtectionDomain* current();
  /// Synchronous PD switch (full vCPU/vGIC save-restore; §IV.E).
  void vm_switch_to(ProtectionDomain* to);
  /// Materialize a lazily-booted PD's address space before a handler
  /// operates on it (no-op for eager PDs).
  void ensure_space(ProtectionDomain& pd);
  /// Keep the kernel's count of armed vtimers in sync (the tick path skips
  /// its PD sweep entirely when the count is zero — VM-density requirement).
  void vtimer_armed_changed(bool was_enabled, bool now_enabled);

  // ---- TLB maintenance with cross-core shootdown (hc_mem) ----
  /// Flush `va` from the shared TLB and broadcast kIpiTlbShootdown to the
  /// other cores (completion-accounted; a no-op broadcast on unicore).
  void tlb_sync_va(vaddr_t va);
  /// Flush one ASID's footprint, with the same broadcast.
  void tlb_sync_asid(u32 asid);

  // ---- cross-core IRQ liveness (hc_irq) ----
  /// True when a *sibling* core's current VM holds `irq` registered and
  /// virtually enabled — physically masking it would rob an on-CPU VM of
  /// its interrupts. Always false on a unicore kernel.
  bool irq_live_on_sibling(u32 irq);

  // ---- kernel-owned shared-device state (hc_io) ----
  std::vector<u8>& sd_image();
  IvcChannel* channel(u32 id);

  // ---- DPR path plumbing (hc_hwtask) ----
  ProtectionDomain* manager_pd();
  HwService* hw_service();
  /// Table III sampling marks for the in-flight hardware-task request.
  void hw_mark_request_start();
  void hw_mark_entry_end();
  void hw_mark_exec_end();
  void hw_cancel_sample();

  // ---- supervisor (hc_mem: kSvcHealthQuery) ----
  /// The VM supervisor, or nullptr when KernelConfig::supervisor is off.
  Supervisor* supervisor();

 private:
  Kernel& kernel_;
};

}  // namespace minova::nova
