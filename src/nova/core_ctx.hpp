// Per-core kernel context (DESIGN.md §13).
//
// The SMP refactor extracts every piece of kernel state that a real
// multi-core Mini-NOVA would hold per CPU — the current protection domain,
// the run queue, the IPI mailbox and the shootdown handshake — into one
// CoreContext. The kernel owns an array of these sized by
// `KernelConfig::num_cores`; a single-element array is the pre-SMP unicore
// kernel, bit for bit.
//
// Every simulated core owns a full private cpu::Core "lane" in the
// Platform (register file, VFP bank, MMU, TLB, caches), so a CoreContext
// carries only kernel-level state plus its own local clock value. The SMP
// engine (DESIGN.md §14) advances cores in serial rounds and runs
// guest compute steps on host threads against the lanes; cross-core
// effects (IPIs, shootdowns) carry explicit arrival times and are only
// acted on once the receiving core's clock passes them. The charged vCPU
// save/restore of vm_switch() is a different thing entirely: that is the
// *guest* context switch the paper measures.
#pragma once

#include <deque>

#include "nova/sched.hpp"
#include "util/types.hpp"

namespace minova::nova {

/// Software-generated interrupts between cores. Modeled at the kernel
/// level: the sender charges the ICDSGIR distributor write, the receiver
/// takes a full IRQ-class trap when the IPI arrives (GIC SGI latency
/// later), exactly like a hardware SGI would cost on the A9 MPCore.
enum class IpiKind : u8 {
  kIpiReschedule = 0,  // remote core has new runnable work (unpark, vIRQ)
  kIpiTlbShootdown,    // invalidate your micro-TLB; ack the epoch
  kIpiVmMigrate,       // a VM was re-homed onto you (arg = PdId)
};

struct Ipi {
  IpiKind kind = IpiKind::kIpiReschedule;
  u32 arg = 0;     // shootdown: VA (0 = all); migrate/reschedule: PdId
  u64 epoch = 0;   // shootdown epoch being acknowledged
  cycles_t arrival = 0;  // absolute delivery time at the target core
};

struct CoreContext {
  CoreContext(u32 core_id, cycles_t default_quantum)
      : id(core_id), sched(default_quantum) {}

  CoreContext(const CoreContext&) = delete;
  CoreContext& operator=(const CoreContext&) = delete;
  CoreContext(CoreContext&&) = default;

  u32 id;
  Scheduler sched;
  ProtectionDomain* current = nullptr;

  /// This core's local simulated time. The SMP round engine gives every
  /// core one conservative-window slice per round; the global clock is set
  /// to this value for the duration of the core's slice prologue.
  cycles_t local_now = 0;

  /// IPI mailbox, ordered by arrival time. Entries become architecturally
  /// visible once the core's local clock passes `arrival`; the run loop
  /// drains arrived IPIs before dispatching any guest work (the shootdown
  /// ordering rule, DESIGN.md §13).
  std::deque<Ipi> ipis;
  /// Highest shootdown epoch this core has acknowledged. Completion:
  /// every core's ack epoch catches up to the kernel's `tlb_epoch_` once
  /// its in-flight shootdown IPIs drain.
  u64 shootdown_ack_epoch = 0;

  // Per-core accounting (KernelInspector::core(i), run_all's `smp` section).
  u64 ipis_sent = 0;
  u64 ipis_received = 0;
  u64 shootdowns_acked = 0;
  u64 steals = 0;  // PDs this core pulled from other cores' queues
  u64 migrations_in = 0;
  u64 irq_traps = 0;
  u64 vm_switches = 0;
};

}  // namespace minova::nova
