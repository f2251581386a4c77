// The Mini-NOVA microkernel (paper §III).
//
// A paravirtualization microkernel for 1..N simulated cores (per-core
// contexts, run queues and IPIs: DESIGN.md §13; num_cores == 1 is the
// bit-identical original unicore kernel): guests run de-privileged in
// USR mode inside protection domains; every sensitive operation arrives as
// one of the 25 hypercalls; physical interrupts are taken by the kernel,
// EOI'd at the GIC and re-injected as virtual IRQs through the owning VM's
// vGIC; VM switches save/restore vCPU state (lazily for VFP/L2-control),
// remask the GIC, and reload TTBR/ASID/DACR without cache or TLB flushes.
//
// Kernel entries are structured in three layers (DESIGN.md §9):
//   trap.hpp    — TrapGuard owns the exception enter/vector/exit sequence
//   portal.hpp  — per-PD portal tables resolve hypercall numbers to
//                 handlers with precomputed capability authorization
//   hc_*.cpp    — handler bodies, programming against KernelOps only
//
// The kernel also hosts the synchronous invocation path of the Hardware
// Task Manager user service (§IV.E): a guest's hardware-task hypercall
// switches to the manager's protection domain, runs the service, and
// resumes the guest with its status — the exact path Table III measures
// (manager entry / execution / exit, PL IRQ entry).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "cpu/code_region.hpp"
#include "nova/asid.hpp"
#include "nova/core_ctx.hpp"
#include "nova/guest_iface.hpp"
#include "nova/host_pool.hpp"
#include "nova/hypercall.hpp"
#include "nova/ivc.hpp"
#include "nova/kernel_ops.hpp"
#include "nova/kheap.hpp"
#include "nova/kmem.hpp"
#include "nova/pd.hpp"
#include "nova/sched.hpp"
#include "nova/supervisor.hpp"
#include "nova/trap.hpp"
#include "util/log.hpp"

namespace minova::nova {

/// Virtual-only IRQ number for the per-VM virtual timer tick.
inline constexpr u32 kVtimerVirq = 120;

/// Manager mailbox location inside the manager image (the kernel writes the
/// request words here; the service reads them from its own space).
inline constexpr u32 kManagerMailboxOffset = 0x1000;

/// A lane's private clock for the host-parallel batch phase (DESIGN.md §14),
/// alone on a 64-byte host cache line. Batch items charge their lanes'
/// clocks concurrently from different host threads, and every charge is a
/// store: clocks sharing a line would bounce it between the threads on each
/// one (false sharing).
struct alignas(64) LaneClock {
  sim::Clock clock;
};
static_assert(alignof(LaneClock) == 64 && sizeof(LaneClock) == 64,
              "adjacent lane clocks must not share a cache line");

/// Synchronous hardware-task service implemented by the Hardware Task
/// Manager (src/hwmgr). The kernel routes the hardware-task hypercalls here
/// after switching into the manager's protection domain.
class HwService {
 public:
  virtual ~HwService() = default;
  /// Handle a dispatch request (§IV.E stages 2-6). `result_flags` conveys
  /// kReconfig when a PCAP transfer was launched.
  virtual HcStatus handle_request(GuestContext& ctx, const HwTaskRequest& req,
                                  u32& result_flags) = 0;
  /// Client voluntarily releases its hardware task.
  virtual HcStatus handle_release(GuestContext& ctx, PdId client,
                                  hwtask::TaskId task) = 0;
  /// Reconfiguration state of `client`'s latest grant, as a kReconfig*
  /// value. Clients with nothing pending report kReconfigReady.
  virtual u32 query_reconfig(PdId client) = 0;
  /// The kernel destroyed `client`'s PD (Kernel::destroy_vm). The service
  /// must drop every reference to the id — PRR grants, pending requests —
  /// because the id may be reissued to an unrelated VM. Host-side cleanup
  /// only: no GuestContext exists for a dead VM, nothing may be charged.
  virtual void handle_client_destroyed(PdId client) { (void)client; }
  /// kHwTaskQuery(kHwQuerySetPrio): set `client`'s hardware-task priority.
  /// Services without a scheduler ignore the call.
  virtual HcStatus set_client_priority(PdId client, u32 prio) {
    (void)client;
    (void)prio;
    return HcStatus::kNotSupported;
  }
  /// kHwTaskQuery(kHwQueryQuota): packed (quota << 16) | grants_in_use for
  /// `client`; 0 when the service enforces no quota.
  virtual u32 query_quota(PdId client) {
    (void)client;
    return 0;
  }
  /// When true, kHwTaskQuery dispatches inside the manager's protection
  /// domain (vm_switch bracket, like request/release). A scheduling service
  /// may re-grant queued requests from the query path — mapping pages and
  /// routing IRQs — which must run in the service window so the switch back
  /// to the caller replays the vGIC mask protocol over any new grant.
  virtual bool query_wants_service_ctx() const { return false; }
};

struct KernelConfig {
  double quantum_ms = 33.0;   // per-guest time slice (paper §V.B)
  u32 tick_period_us = 1000;  // kernel scheduling/vtimer tick

  // ---- SMP (DESIGN.md §13) ----
  // Simulated core count (the paper's Zynq-7000 is a dual Cortex-A9;
  // exercised up to 8). Default 1: every simulated quantity of the unicore
  // kernel — the configuration all Table III goldens were recorded on —
  // must stay bit-identical, and any num_cores > 1 necessarily changes
  // scheduling interleavings. SMP runs opt in (run_all's `smp` section,
  // fuzzer --cores, the MININOVA_TEST_CORES suites).
  u32 num_cores = 1;
  // Conservative-window synchronization: one slice of the lagging core may
  // run at most this far ahead before control returns to the outer loop,
  // bounding cross-core causality skew (IPIs, shared-device events).
  double smp_window_us = 50.0;
  // Host threads executing the per-round compute batch (DESIGN.md §14).
  // Purely a host-speed knob: every simulated number is bit-identical at
  // any value (enforced by the differential tests and the TSan CI leg).
  // 1 = fully single-threaded, the default. Clamped to [1, num_cores].
  u32 host_threads = 1;

  // Ablation switches (paper design decisions).
  bool lazy_vfp = true;        // Table I: lazy-switch the VFP bank
  bool lazy_l2ctrl = true;     // Table I: lazy-switch L2 control registers
  bool use_asid = true;        // §III.C: ASID reload vs full TLB flush
  // Lazy VM construction (density): create_vm defers page-table population
  // to the first guest-memory touch and the vGIC record list to the first
  // charged IRQ operation, making VM creation O(1). Off by default: eager
  // construction is the measured configuration of the paper's tables.
  bool lazy_vm_boot = false;

  // VM supervisor (DESIGN.md §16): fault containment, watchdogs and
  // crash-loop recovery. Default-off; with `supervisor.enabled` false the
  // kernel constructs no Supervisor and every simulated number stays
  // bit-identical to the pre-supervisor kernel.
  SupervisorConfig supervisor;
};

/// Introspection events: where an observer hook fires relative to kernel
/// execution. Trap exits cover all five TrapKind paths; VM switches fire
/// separately because a switch can happen inside a hypercall (the
/// synchronous manager invocation) as well as from the run loop.
enum class KernelEvent : u8 { kTrapExit = 0, kVmSwitch };

/// Observer invoked after every trap exit and VM switch (fuzzer invariant
/// oracles). The hook must be read-only with respect to simulated state:
/// it runs outside all TrapGuard scopes and charges nothing, so installing
/// it never perturbs simulated time or replay determinism.
using IntrospectionHook = std::function<void(KernelEvent, TrapKind)>;

/// Table III instrumentation: averages are computed over a run.
struct HwMgrLatencies {
  sim::LatencyStat entry_us;
  sim::LatencyStat exec_us;
  sim::LatencyStat exit_us;
  sim::LatencyStat total_us;
  sim::LatencyStat pl_irq_entry_us;
};

class Kernel {
 public:
  explicit Kernel(Platform& platform, const KernelConfig& cfg = {});

  // ---- system construction ----
  ProtectionDomain& create_vm(std::string name, u32 priority,
                              std::unique_ptr<GuestOs> guest);
  /// Create the Hardware Task Manager service PD (suspended by default,
  /// higher priority than guests, holds the map-other/PL capabilities).
  ProtectionDomain& create_manager(std::string name, u32 priority,
                                   HwService& service);
  IvcChannel& create_channel(ProtectionDomain& a, ProtectionDomain& b);

  /// Tear down a VM: dequeue it, strip its IRQ/VFP/PCAP ownership, notify
  /// the hardware-task service, flush its ASID footprint from the TLB and
  /// recycle ASID, PdId slot, physical slab index and every kernel object
  /// (vCPU save area, vGIC list, control block, page tables) back to their
  /// pools. Returns false for an unknown id or a non-VM PD (the manager
  /// service cannot be destroyed). Must not be called from inside the
  /// victim's own hypercall.
  bool destroy_vm(PdId id);

  // ---- SMP (DESIGN.md §13) ----
  u32 num_cores() const { return u32(cores_.size()); }
  u32 active_core() const { return active_core_; }
  /// Re-home a VM onto `target_core`'s run queue, preserving its vCPU,
  /// VFP and vGIC state bit for bit (they live in the PD, untouched by the
  /// queue transfer) and its remaining quantum. Refuses the manager, an
  /// unknown id, and any PD that is current on some core. Sends
  /// kIpiVmMigrate to the target. True on success (including a no-op
  /// migration onto the core it already runs on).
  bool migrate_vm(PdId id, u32 target_core);
  /// Global TLB shootdown epoch and how many shootdown IPIs were issued
  /// (completion accounting: sent == sum of per-core acks + in-flight).
  u64 tlb_epoch() const { return tlb_epoch_; }
  u64 shootdowns_sent() const { return shootdowns_sent_; }
  /// Deliberately corrupt per-core state so the fuzzer's SMP oracles can
  /// prove they fire (mutation checks ONLY; see smp_sabotage kinds in
  /// src/fuzz/scenario.hpp). Production code must never call this.
  void smp_sabotage_for_test(u32 kind);

  // ---- simulation driving ----
  void run_for_us(double us) {
    run_until(platform_.clock().now() + platform_.clock().us_to_cycles(us));
  }
  void run_until(cycles_t deadline);

  // ---- hypercall gate (invoked via GuestContext) ----
  /// The SVC gate: charges the trap choreography through a TrapGuard,
  /// resolves the caller's portal, and runs the handler (or rejects with
  /// kDenied when the portal's precomputed authorization fails).
  HypercallResult hypercall_gate(ProtectionDomain& caller,
                                 const HypercallArgs& args);

  // ---- lazy VFP access from guests ----
  void vfp_access(ProtectionDomain& pd);

  // ---- guest fault path (paper SIV.C acknowledgement method 2) ----
  /// A de-privileged guest access faulted (e.g. a demapped hardware-task
  /// interface page). Charges the ABT exception entry, the kernel abort
  /// handler that attributes the fault, the forwarding to the guest's
  /// registered handler, and the return. The emulated FSR/FAR pair lands in
  /// `pd.sysregs[6..7]`, where the guest can read it.
  void forward_guest_fault(ProtectionDomain& pd, const mmu::Fault& fault);

  // ---- fatal guest traps (DESIGN.md §16) ----
  /// A guest raised a trap it has no handler for (GuestContext::
  /// raise_fatal). Charges the ABT/UND-class trap choreography; when a
  /// supervisor watches the PD the fault is contained — the VM is condemned
  /// and the run loop reaps it after the step returns (the guest must halt) —
  /// otherwise the trap degrades to the legacy forwarding path and the
  /// guest continues. Returns true when contained.
  bool guest_fatal(ProtectionDomain& pd, FatalKind kind);

  /// The supervisor subsystem, or nullptr when KernelConfig::supervisor is
  /// disabled (the default).
  Supervisor* supervisor() { return sup_.get(); }

  // ---- lazy VM boot (density) ----
  /// A guest-memory access by `pd` faulted at `va` and the PD has no
  /// address space yet: materialize it (charging one abort-class kernel
  /// trap) so the caller can retry the access. Returns false when the fault
  /// is not a lazy-boot first touch (real fault — take the normal path).
  bool lazy_fault_fixup(ProtectionDomain& pd, vaddr_t va);
  /// Materialize a lazily-booted PD's address space without charging
  /// anything (hypercall handlers that operate *on* the space call this
  /// before touching it; the cost is carried by the handler's own model).
  void ensure_space(ProtectionDomain& pd);
  u64 lazy_space_faults() const { return c_lazy_space_faults_.value(); }

  // ---- ASID generations (density) ----
  u32 asid_generation() const { return asid_alloc_.generation(); }
  u64 asid_rollovers() const { return asid_rollovers_; }

  // ---- density instrumentation ----
  u64 vms_destroyed() const { return vms_destroyed_; }
  /// Simulated cycles accumulated inside vm_switch() (flatness curves).
  u64 vm_switch_cycles_total() const { return vm_switch_cycles_; }

  // ---- kernel services used by the manager (capability-checked) ----
  HcStatus svc_map_into(ProtectionDomain& caller, PdId target, vaddr_t va,
                        paddr_t pa, bool executable_never = true);
  HcStatus svc_unmap_from(ProtectionDomain& caller, PdId target, vaddr_t va);
  HcStatus svc_assign_pl_irq(ProtectionDomain& caller, PdId client,
                             u32 gic_irq);
  HcStatus svc_set_pcap_owner(ProtectionDomain& caller, PdId client);
  /// Write a consistency record into a client's hardware task data section
  /// (the state flag + saved interface registers of §IV.C).
  HcStatus svc_write_client_data(ProtectionDomain& caller, PdId client,
                                 u32 offset, std::span<const u32> words);

  // ---- lookups ----
  ProtectionDomain* pd_by_id(PdId id);
  /// The active core's current PD (on a unicore kernel: *the* current PD).
  ProtectionDomain* current() { return cores_[active_core_].current; }
  /// Where a staged bitstream lives in the bitstream store. `pa == 0`
  /// (and `len == 0`) when the task is unknown.
  struct BitstreamLoc {
    paddr_t pa = 0;
    u32 len = 0;
  };
  BitstreamLoc find_bitstream(hwtask::TaskId task) const;

  Platform& platform() { return platform_; }
  /// Core 0's scheduler — the only one on a unicore kernel. SMP-aware
  /// callers go through KernelInspector::core(i).runqueue().
  Scheduler& scheduler() { return cores_[0].sched; }
  KernelHeap& heap() { return heap_; }
  const KernelConfig& config() const { return cfg_; }
  HwMgrLatencies& hwmgr_latencies() { return hwmgr_lat_; }
  const std::string& console() const { return console_; }
  double now_us() const { return platform_.clock().now_us(); }

  /// Count of VM switches performed (tests / benches): the per-core
  /// counters summed.
  u64 vm_switch_count() const {
    u64 n = 0;
    for (const auto& cc : cores_) n += cc.vm_switches;
    return n;
  }
  u64 hypercall_count() const {
    return trap_counters_.count(TrapKind::kHypercall);
  }

  /// Install (or clear, with an empty function) the introspection hook.
  void set_introspection_hook(IntrospectionHook hook) {
    hook_ = std::move(hook);
  }

 private:
  // KernelOps is the one window handler units get onto kernel state; its
  // accessor bodies live in kernel.cpp next to the state they expose.
  friend class KernelOps;
  // Read-only facade over kernel state for the fuzzer's invariant oracles.
  friend class KernelInspector;
  // The supervisor drives destroy_vm/create_vm and the service-call charge
  // from its reap/restart paths (DESIGN.md §16).
  friend class Supervisor;

  // -- run-loop pieces --
  void boot();
  /// Allocate an ASID tag; on generation rollover performs the one full TLB
  /// flush and immediately re-tags the running VM (its old tag is retired
  /// but still loaded in CONTEXTIDR — leaving it would let the recycler
  /// hand the same number to another VM of the new generation).
  AsidTag alloc_asid();
  /// Re-tag `pd` if its ASID tag belongs to a retired generation (called on
  /// switch-in: the lazy revalidation half of the rollover scheme).
  void ensure_asid_current(ProtectionDomain& pd);
  void set_parked(ProtectionDomain& pd, bool parked);
  /// A free PdId: a recycled slot, else a new one at the end of `pds_`.
  PdId alloc_pd_slot();
  /// The one SMP masking rule (DESIGN.md §13.4): true when a core other
  /// than `self` runs a VM that holds `irq` registered and virtually
  /// enabled. `self` is the core of the VM whose sources are being masked,
  /// which is not always the active core. Always false on a unicore kernel.
  bool irq_live_on_sibling(u32 irq, u32 self) const;
  /// Write back the VFP bank and L2 control registers `pd` left in core
  /// `core_id`'s lane, before the PD runs on another core. Charged to the
  /// active core, which performs the save.
  void write_back_lazy_state(ProtectionDomain& pd, u32 core_id);
  /// The ABT/UND-class trap a guest fault takes: vector, abort handler,
  /// the emulated FSR/FAR pair in `pd.sysregs[6..7]`, and, with `inject`,
  /// the forced jump to the guest's handler.
  void guest_trap(ProtectionDomain& pd, cpu::Exception exc, u32 fsr,
                  u32 far, bool inject);
  void stage_bitstreams();
  void handle_pending_irqs();
  void route_irq(u32 irq);
  void kernel_tick();
  void deliver_virqs(ProtectionDomain& pd);
  void vm_switch(ProtectionDomain* to);
  void idle(cycles_t limit);

  // -- SMP run-loop pieces (kernel_run.cpp); every one of these is a
  // structural no-op with zero charges when num_cores == 1 --
  CoreContext& cur_core() { return cores_[active_core_]; }
  const CoreContext& cur_core() const { return cores_[active_core_]; }
  /// One scheduling slice of `cc`, bounded by `limit`. The unicore run
  /// loop is exactly `while (now < deadline) smp_slice(cores_[0], deadline)`.
  /// With `allow_defer` (the SMP round engine), a guest whose next step is
  /// pure computation is not stepped inline: the step is pushed onto the
  /// round's batch (executed lane-parallel later) and the slice returns
  /// true — the core's local clock then advances at batch commit instead.
  bool smp_slice(CoreContext& cc, cycles_t limit, bool allow_defer = false);
  /// Select which lane (private cpu::Core) the simulator models. Host-side
  /// bookkeeping only — every simulated core permanently owns its lane, so
  /// nothing is swapped and no simulated cycles are charged.
  void switch_active_core(u32 target);
  /// One deferred compute step (DESIGN.md §14). Slots are written only by
  /// the claiming host worker during the batch phase, then read by the
  /// serial commit.
  struct BatchStep {
    u32 core_id = 0;
    ProtectionDomain* pd = nullptr;
    cycles_t start = 0;   // lane clock start (== the core's local time)
    cycles_t end = 0;     // lane clock after the step
    cycles_t budget = 0;
    StepExit exit = StepExit::kBudget;
  };
  /// Run one batch item on its core's private lane under that lane's
  /// private clock. Touches only the lane, the PD's own guest memory and
  /// the guest object — the whole thread-safety argument of §14.
  void exec_batch_item(BatchStep& s);
  /// Scheduling epilogue of a guest step on `cc` that ran `used` cycles:
  /// quantum charge, supervisor pet/ran/reap, halt/rotate/park. Shared by
  /// the inline path of smp_slice and the serial batch commit; each caller
  /// advances the core's local clock itself.
  void step_epilogue(CoreContext& cc, ProtectionDomain* pd, cycles_t used,
                     StepExit exit);
  /// Take the IRQ-class trap for every IPI that has arrived at `cc` and
  /// perform its action. Runs before any guest dispatch in the slice.
  void drain_ipis(CoreContext& cc);
  /// Pull-based work stealing: called when `thief`'s run queue has nothing
  /// eligible. Scans victims round-robin from thief.id+1.
  ProtectionDomain* try_steal(CoreContext& thief);
  void send_ipi(u32 target, IpiKind kind, u32 arg, u64 epoch);
  /// Broadcast kIpiTlbShootdown for `va` (0 = full) to every other core,
  /// bumping the epoch. Called on every unmap/protect/flush and on ASID
  /// rollover. No-op on a unicore kernel (TLBIMVA needs no broadcast).
  void tlb_shootdown(vaddr_t va);

  void charge_service_call();
  GuestContext make_ctx(ProtectionDomain& pd) {
    return GuestContext(*this, pd, platform_.cpu());
  }
  void notify_introspection(KernelEvent ev, TrapKind kind) {
    if (hook_) hook_(ev, kind);
  }

  Platform& platform_;
  KernelConfig cfg_;
  KernelHeap heap_;
  mmu::PageTableAllocator pt_alloc_;
  VmSpaceBuilder space_builder_;
  // Per-core contexts (DESIGN.md §13). cores_[active_core_] is the core
  // the single host cpu::Core currently models; its `current` pointer is
  // the authoritative "current PD" of the pre-SMP kernel.
  std::vector<CoreContext> cores_;
  u32 active_core_ = 0;
  KernelOps ops_{*this};

  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
  std::vector<std::unique_ptr<IvcChannel>> channels_;
  ProtectionDomain* manager_pd_ = nullptr;
  HwService* hw_service_ = nullptr;
  // Constructed only when cfg_.supervisor.enabled; every hook in the run
  // loop and trap paths is gated on `sup_ != nullptr`.
  std::unique_ptr<Supervisor> sup_;
  std::unique_ptr<mmu::AddressSpace> kernel_space_;

  // Kernel code footprint regions.
  cpu::CodeLayout code_;
  cpu::CodeRegion rg_vector_, rg_hc_entry_, rg_hc_exit_, rg_dispatch_,
      rg_irq_entry_, rg_tick_, rg_vm_switch_, rg_inject_, rg_service_call_,
      rg_abt_;
  std::array<cpu::CodeRegion, kNumHypercalls> rg_handlers_{};

  // IRQ routing.
  std::array<PdId, mem::kNumIrqs> irq_owner_{};
  PdId pcap_owner_ = kInvalidPd;
  // Pending PL IRQ latency measurement. The paper's "PL IRQ entry" is the
  // active CPU time from the exception vector to the vGIC injection; when
  // the owner VM is descheduled the pending wait (§IV.D) is excluded, so we
  // accumulate the routing segment at IRQ time and add the injection
  // segment when the owner is finally dispatched.
  std::array<cycles_t, mem::kNumIrqs> pl_irq_route_cycles_{};

  // Lazy-switch ownership, per lane: each simulated core's private VFP
  // bank / L2 control registers track which PD's state they hold. Index
  // [active_core_] is the pre-SMP scalar, bit for bit.
  std::vector<PdId> vfp_owner_;
  std::vector<PdId> l2ctrl_owner_;

  // Bitstream store index.
  std::vector<std::pair<hwtask::TaskId, BitstreamLoc>> bitstreams_;

  // Instrumentation. Event counters are interned once here; hot kernel
  // paths bump the handles instead of hashing counter names per event.
  TrapCounters trap_counters_{platform_.stats()};
  sim::CounterHandle c_guest_faults_{platform_.stats().handle(
      "kernel.guest_faults")};
  sim::CounterHandle c_portal_denied_{platform_.stats().handle(
      "kernel.portal_denied")};
  sim::CounterHandle c_unrouted_irq_{platform_.stats().handle(
      "kernel.unrouted_irq")};
  sim::CounterHandle c_virq_injected_{platform_.stats().handle(
      "kernel.virq_injected")};
  sim::CounterHandle c_lazy_space_faults_{platform_.stats().handle(
      "kernel.lazy_space_faults")};
  // SMP counters. All stay zero on a unicore kernel.
  sim::CounterHandle c_cross_core_irq_{platform_.stats().handle(
      "kernel.irq.cross_core")};
  sim::CounterHandle c_ipi_sent_{platform_.stats().handle(
      "kernel.ipi.sent")};
  sim::CounterHandle c_steals_{platform_.stats().handle(
      "kernel.smp.steals")};
  sim::CounterHandle c_shootdown_acks_{platform_.stats().handle(
      "kernel.smp.shootdown_acks")};
  HwMgrLatencies hwmgr_lat_;
  // Hardware-task request timestamps (valid while a request is in flight).
  cycles_t hw_req_t0_ = 0;
  cycles_t hw_entry_end_ = 0;
  cycles_t hw_exec_end_ = 0;

  IntrospectionHook hook_;
  std::string console_;
  std::vector<u8> sd_image_;
  AsidAllocator asid_alloc_;
  u32 next_vm_index_ = 0;
  // Recycled identifiers (destroy_vm feeds these, create_vm drains them).
  std::vector<u32> free_vm_indices_;
  std::vector<PdId> free_pd_slots_;
  // Density bookkeeping: run-loop scans are gated on these counts so a
  // thousand idle VMs cost nothing per tick.
  u32 parked_count_ = 0;
  u32 vtimers_enabled_ = 0;
  u64 asid_rollovers_ = 0;
  u64 vms_destroyed_ = 0;
  u64 vm_switch_cycles_ = 0;
  // SMP bookkeeping. `tlb_epoch_` counts shootdown rounds; completion
  // holds when shootdowns_sent_ equals the per-core ack sum plus whatever
  // is still in flight in the mailboxes (the kShootdownComplete oracle).
  u64 tlb_epoch_ = 0;
  u64 shootdowns_sent_ = 0;
  u32 next_core_assign_ = 0;  // round-robin VM placement cursor
  // Host-parallel batch machinery (DESIGN.md §14). `lane_clocks_[i]` is
  // lane i's private clock for the batch phase; `in_parallel_batch_` arms
  // the contract asserts (no hypercall/fault/VFP from a compute step).
  std::vector<BatchStep> batch_;
  std::vector<LaneClock> lane_clocks_;
  std::unique_ptr<HostPool> pool_;
  bool in_parallel_batch_ = false;
  util::Logger log_{"nova.kernel"};
};

}  // namespace minova::nova
