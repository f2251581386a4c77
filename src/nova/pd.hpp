// Protection Domain — the kernel object representing one VM or user
// service (paper §III.A).
//
// A PD is the resource container and capability interface between a virtual
// machine and the microkernel: it holds the VM's identity and priority, its
// vCPU, its address space (page-table root + ASID), its vGIC, the hardware
// task data section, scheduling state, and the capability bits gating
// privileged hypercalls (the Hardware Task Manager holds capabilities
// ordinary guests don't).
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "hwtask/library.hpp"
#include "mmu/page_table.hpp"
#include "nova/guest_iface.hpp"
#include "nova/portal.hpp"
#include "nova/vcpu.hpp"
#include "nova/vgic.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace minova::nova {

using PdId = u32;
inline constexpr PdId kInvalidPd = 0xFFFF'FFFFu;

/// Capability bits held by a PD (subset of a capability-space model: enough
/// to express the authority differences the paper relies on).
enum PdCaps : u32 {
  kCapNone = 0,
  /// May map/unmap pages in *other* PDs' address spaces (manager only).
  kCapMapOther = 1u << 0,
  /// May program the PL global control page / PCAP (manager only).
  kCapPlControl = 1u << 1,
  /// May issue hardware task requests (ordinary guests).
  kCapHwClient = 1u << 2,
};

/// A pending hardware-task request routed to the manager service
/// (the 3-argument hypercall of §IV.E).
struct HwTaskRequest {
  PdId client = kInvalidPd;
  hwtask::TaskId task = hwtask::kInvalidTask;
  vaddr_t iface_va = 0;      // where the client wants the PRR reg group
  vaddr_t data_section_va = 0;  // client's hardware task data section
};

enum class PdState : u8 { kReady, kSuspended, kHalted };

/// Kernel-heap footprint of the PD descriptor + portal table control block
/// (carved from the heap's control region; recycled on PD destruction).
inline constexpr u32 kPdCtrlBytes = 256;

class ProtectionDomain {
 public:
  /// `space` may be null for a lazily-booted VM: the kernel materializes
  /// the address space on first touch (see Kernel::lazy_fault_fixup) and
  /// installs it with set_space(). `lazy_vgic` defers the vGIC record-list
  /// allocation the same way.
  ProtectionDomain(PdId id, std::string name, u32 priority, KernelHeap& heap,
                   irq::Gic& gic, u32 asid,
                   std::unique_ptr<mmu::AddressSpace> space, u32 caps,
                   bool lazy_vgic = false);
  ~ProtectionDomain();

  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  PdId id() const { return id_; }
  const std::string& name() const { return name_; }
  u32 priority() const { return priority_; }
  u32 caps() const { return caps_; }
  bool has_cap(PdCaps c) const { return (caps_ & c) != 0; }

  /// The PD's capability-portal dispatch table: the one shared table for
  /// its `caps` (PortalTable::for_caps).
  const PortalTable& portals() const { return *portals_; }

  Vcpu& vcpu() { return vcpu_; }
  const Vcpu& vcpu() const { return vcpu_; }
  VGic& vgic() { return vgic_; }
  const VGic& vgic() const { return vgic_; }
  mmu::AddressSpace& space() {
    MINOVA_CHECK_MSG(space_ != nullptr, "lazy PD has no address space yet");
    return *space_;
  }
  const mmu::AddressSpace& space() const {
    MINOVA_CHECK_MSG(space_ != nullptr, "lazy PD has no address space yet");
    return *space_;
  }
  bool has_space() const { return space_ != nullptr; }
  void set_space(std::unique_ptr<mmu::AddressSpace> s) {
    space_ = std::move(s);
  }

  /// Mutation hook for oracle sanity tests ONLY: overwrites the capability
  /// mask *without* rebuilding the portal table, deliberately seeding a
  /// caps/portal inconsistency for the fuzzer's invariant suite to catch.
  /// Production code must never call this.
  void set_caps_for_test(u32 caps) { caps_ = caps; }

  void attach_guest(std::unique_ptr<GuestOs> guest) {
    guest_ = std::move(guest);
  }
  GuestOs* guest() { return guest_.get(); }
  const GuestOs* guest() const { return guest_.get(); }

  PdState state() const { return state_; }
  void set_state(PdState s) { state_ = s; }

  // Scheduling bookkeeping (owned by the scheduler/kernel).
  cycles_t quantum_left = 0;
  bool booted = false;
  // O(1) queue membership: the scheduler's queues are intrusive lists
  // threaded through these links (a PD sits in at most one queue), so
  // enqueue/suspend/remove need no list scans at VM density. `sched_owner`
  // scopes the membership to one scheduler instance — a PD handed to a
  // different scheduler starts clean.
  ProtectionDomain* sched_prev = nullptr;
  ProtectionDomain* sched_next = nullptr;
  u64 sched_owner = 0;
  bool in_run_queue = false;
  bool in_suspended = false;
  // Parked: yielded with nothing to do; skipped by dispatch until a virtual
  // interrupt becomes deliverable. Lets lower-priority PDs run while a
  // high-priority VM sleeps.
  bool parked = false;
  // SMP affinity (DESIGN.md §13). `home_core` is the creation-time
  // placement, `run_core` the core whose scheduler currently holds the PD
  // (they diverge after a steal or an explicit migration). A pinned PD is
  // never stolen. All zero on a unicore kernel.
  u32 home_core = 0;
  u32 run_core = 0;
  bool core_pinned = false;
  u64 migrations = 0;

  // Hardware task data section (physical window the hwMMU is loaded with).
  paddr_t hw_data_pa = 0;
  u32 hw_data_size = 0;

  // Index of this VM's physical memory slab (VMs only; services have none).
  u32 vm_index = 0;

  // Requests queued for this PD when it is the manager service.
  std::deque<HwTaskRequest> mailbox;

  // Guest privilege level (paper Table II): true while the guest executes
  // its kernel; drives which DACR the vCPU carries.
  bool guest_in_kernel = true;

  // Emulated privileged system registers (reg_read/reg_write hypercalls).
  std::array<u32, 8> sysregs{};

 private:
  PdId id_;
  std::string name_;
  u32 priority_;
  u32 caps_;
  const PortalTable* portals_;
  KernelHeap* heap_;
  paddr_t ctrl_pa_;
  std::unique_ptr<mmu::AddressSpace> space_;
  Vcpu vcpu_;
  VGic vgic_;
  std::unique_ptr<GuestOs> guest_;
  PdState state_ = PdState::kReady;
};

}  // namespace minova::nova
