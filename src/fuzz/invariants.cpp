#include "fuzz/invariants.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "hwmgr/manager.hpp"
#include "mem/address_map.hpp"
#include "nova/kmem.hpp"
#include "pl/prr_controller.hpp"

namespace minova::fuzz {

using nova::kInvalidPd;
using nova::PdId;
using nova::ProtectionDomain;

const char* oracle_name(Oracle o) {
  switch (o) {
    case Oracle::kFrameExclusivity: return "frame-exclusivity";
    case Oracle::kDacrMode: return "dacr-mode";
    case Oracle::kIrqMaskDiscipline: return "irq-mask-discipline";
    case Oracle::kIrqUnmaskDiscipline: return "irq-unmask-discipline";
    case Oracle::kSchedPartition: return "sched-partition";
    case Oracle::kQuantumBound: return "quantum-bound";
    case Oracle::kPortalCaps: return "portal-caps";
    case Oracle::kPrrOwnership: return "prr-ownership";
    case Oracle::kHwMmuWindow: return "hwmmu-window";
    case Oracle::kTlbCoherence: return "tlb-coherence";
    case Oracle::kObjectLeak: return "object-leak";
    case Oracle::kAsidUniqueness: return "asid-uniqueness";
    case Oracle::kCorePartition: return "core-partition";
    case Oracle::kShootdownComplete: return "shootdown-complete";
    case Oracle::kCoreExclusivity: return "core-exclusivity";
    case Oracle::kHwLaunchLedger: return "hw-launch-ledger";
    case Oracle::kHwSaveRestore: return "hw-save-restore";
    case Oracle::kHwQuota: return "hw-quota";
    case Oracle::kHwCacheValid: return "hw-cache-valid";
    case Oracle::kSvContainment: return "sv-containment";
    case Oracle::kSvRestartLedger: return "sv-restart-ledger";
    case Oracle::kSvQuarantine: return "sv-quarantine";
    case Oracle::kCount: break;
  }
  return "?";
}

namespace {

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

void add(std::vector<Violation>& out, Oracle o, std::string detail) {
  out.push_back(Violation{o, std::move(detail)});
}

/// Guest-reachable VA range the mapping scans sweep: guest kernel + user
/// images, the hardware-task data section, and the chaos scratch window —
/// everything below the first guaranteed-unmapped megabyte. The hardware
/// task interface window is scanned separately (16 pages is enough to cover
/// the manager's device windows and any client's register-group page).
constexpr vaddr_t kScanLimit = 0x00D0'0000u;
constexpr u32 kIfaceScanPages = 16;

bool in_range(paddr_t pa, paddr_t base, u64 size) {
  return pa >= base && pa < base + size;
}

}  // namespace

bool InvariantSuite::is_heavy(Oracle o) {
  switch (o) {
    case Oracle::kFrameExclusivity:
    case Oracle::kPrrOwnership:
    case Oracle::kTlbCoherence:
      return true;
    default:
      return false;
  }
}

void InvariantSuite::check(Oracle o, std::vector<Violation>& out) const {
  switch (o) {
    case Oracle::kFrameExclusivity: check_frame_exclusivity(out); break;
    case Oracle::kDacrMode: check_dacr_mode(out); break;
    case Oracle::kIrqMaskDiscipline: check_irq_mask(out); break;
    case Oracle::kIrqUnmaskDiscipline: check_irq_unmask(out); break;
    case Oracle::kSchedPartition: check_sched_partition(out); break;
    case Oracle::kQuantumBound: check_quantum_bound(out); break;
    case Oracle::kPortalCaps: check_portal_caps(out); break;
    case Oracle::kPrrOwnership: check_prr_ownership(out); break;
    case Oracle::kHwMmuWindow: check_hwmmu_window(out); break;
    case Oracle::kTlbCoherence: check_tlb_coherence(out); break;
    case Oracle::kObjectLeak: check_object_leak(out); break;
    case Oracle::kAsidUniqueness: check_asid_uniqueness(out); break;
    case Oracle::kCorePartition: check_core_partition(out); break;
    case Oracle::kShootdownComplete: check_shootdown_complete(out); break;
    case Oracle::kCoreExclusivity: check_core_exclusivity(out); break;
    case Oracle::kHwLaunchLedger: check_hw_launch_ledger(out); break;
    case Oracle::kHwSaveRestore: check_hw_save_restore(out); break;
    case Oracle::kHwQuota: check_hw_quota(out); break;
    case Oracle::kHwCacheValid: check_hw_cache_valid(out); break;
    case Oracle::kSvContainment: check_sv_containment(out); break;
    case Oracle::kSvRestartLedger: check_sv_restart_ledger(out); break;
    case Oracle::kSvQuarantine: check_sv_quarantine(out); break;
    case Oracle::kCount: break;
  }
}

std::vector<Violation> InvariantSuite::check_cheap() const {
  std::vector<Violation> out;
  for (u32 i = 0; i < kNumOracles; ++i)
    if (!is_heavy(Oracle(i))) check(Oracle(i), out);
  return out;
}

std::vector<Violation> InvariantSuite::check_heavy() const {
  std::vector<Violation> out;
  for (u32 i = 0; i < kNumOracles; ++i)
    if (is_heavy(Oracle(i))) check(Oracle(i), out);
  return out;
}

std::vector<Violation> InvariantSuite::check_all() const {
  std::vector<Violation> out = check_cheap();
  for (auto& v : check_heavy()) out.push_back(std::move(v));
  return out;
}

// ---- (1) frame exclusivity --------------------------------------------------
//
// Sweep every PD's guest-reachable VA range and classify each mapped frame:
// a VM may only reach its own physical slab, the manager only its image and
// the bitstream store, and no two PDs may map the same private DRAM frame.
// Deferred while the manager service is mid-update inside a client call.
void InvariantSuite::check_frame_exclusivity(std::vector<Violation>& out) const {
  if (insp_.in_manager_service()) return;
  const ProtectionDomain* manager = insp_.manager();
  // First mapper of each private DRAM frame (page number -> pd index).
  std::map<paddr_t, u32> frame_owner;

  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;         // destroyed VM left an empty slot
    if (!pd->has_space()) continue;      // lazy VM: nothing mapped yet
    const bool is_mgr = pd == manager;
    const auto& space = pd->space();
    for (vaddr_t va = 0; va < kScanLimit; va += mmu::kPageSize) {
      if ((va & (kMiB - 1)) == 0 && !space.l1_present(va)) {
        va += kMiB - mmu::kPageSize;  // skip the unmapped megabyte
        continue;
      }
      const auto pa = space.translate_raw(va);
      if (!pa) continue;
      const bool ok =
          is_mgr ? (in_range(*pa, nova::kManagerBase, nova::kManagerSize) ||
                    in_range(*pa, nova::kBitstreamBase, nova::kBitstreamSize))
                 : in_range(*pa, nova::vm_phys_base(pd->vm_index),
                            nova::kVmPhysSize);
      if (!ok) {
        add(out, Oracle::kFrameExclusivity,
            "pd '" + pd->name() + "' maps foreign frame pa=" + hex(*pa) +
                " at va=" + hex(va));
        continue;
      }
      if (is_mgr) continue;  // the manager's regions are exclusively its own
      const paddr_t page = *pa >> 12;
      const auto [it, inserted] = frame_owner.emplace(page, i);
      if (!inserted && it->second != i)
        add(out, Oracle::kFrameExclusivity,
            "frame pa=" + hex(*pa) + " mapped by both '" +
                insp_.pd(it->second)->name() + "' and '" + pd->name() +
                "' (va=" + hex(va) + ")");
    }
  }
}

// ---- (2) DACR matches privilege mode (paper Table II) -----------------------
void InvariantSuite::check_dacr_mode(std::vector<Violation>& out) const {
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;
    const u32 want =
        pd->guest_in_kernel ? nova::dacr_guest_kernel() : nova::dacr_guest_user();
    if (pd->vcpu().dacr() != want)
      add(out, Oracle::kDacrMode,
          "pd '" + pd->name() + "' " +
              (pd->guest_in_kernel ? "in guest-kernel" : "in guest-user") +
              " but saved dacr=" + hex(pd->vcpu().dacr()) + " (want " +
              hex(want) + ")");
  }
  // The live MMU must carry the current PD's DACR (the hypercall gate runs
  // on the host DACR but restores the caller's before the trap-exit event).
  const ProtectionDomain* cur = insp_.current();
  if (cur != nullptr) {
    const u32 live = insp_.platform().cpu().mmu().dacr();
    if (live != cur->vcpu().dacr())
      add(out, Oracle::kDacrMode,
          "live mmu dacr=" + hex(live) + " != current '" + cur->name() +
              "' dacr=" + hex(cur->vcpu().dacr()));
  }
}

// ---- (3) outgoing VMs' IRQ sources are masked -------------------------------
//
// Every physical source registered by a descheduled PD must be disabled at
// the GIC — unless the *current* PD also has it registered and virtually
// enabled (a legitimately shared source, e.g. after a PL IRQ reassignment
// leaves the old client's record stale), or it is the devcfg/PCAP IRQ,
// which stays boot-enabled so transfer completions arrive while the PCAP
// owner is descheduled (completion routing, paper §IV.E stage 6).
void InvariantSuite::check_irq_mask(std::vector<Violation>& out) const {
  // "Descheduled" under SMP means current on *no* core: a VM on-CPU on any
  // core legitimately keeps its enabled sources unmasked at the shared GIC.
  std::vector<const ProtectionDomain*> on_cpu;
  for (u32 c = 0; c < insp_.num_cores(); ++c)
    if (const ProtectionDomain* cv = insp_.core(c).current_vm())
      on_cpu.push_back(cv);
  auto& gic = insp_.platform().gic();
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;
    if (std::find(on_cpu.begin(), on_cpu.end(), pd) != on_cpu.end()) continue;
    for (const auto& rec : pd->vgic().records()) {
      if (rec.irq == 0 || rec.irq >= mem::kNumIrqs) continue;  // virtual-only
      if (rec.irq == mem::kIrqDevcfg) continue;
      if (!gic.is_enabled(rec.irq)) continue;
      bool shared_with_current = false;
      for (const ProtectionDomain* cur : on_cpu)
        if (cur->vgic().is_registered(rec.irq) &&
            cur->vgic().is_enabled(rec.irq)) {
          shared_with_current = true;
          break;
        }
      if (!shared_with_current)
        add(out, Oracle::kIrqMaskDiscipline,
            "irq " + std::to_string(rec.irq) + " of descheduled pd '" +
                pd->name() + "' is unmasked at the GIC");
    }
  }
}

// ---- (4) current VM's enabled sources are unmasked --------------------------
void InvariantSuite::check_irq_unmask(std::vector<Violation>& out) const {
  const ProtectionDomain* cur = insp_.current();
  if (cur == nullptr) return;
  auto& gic = insp_.platform().gic();
  for (const auto& rec : cur->vgic().records()) {
    if (rec.irq == 0 || rec.irq >= mem::kNumIrqs) continue;
    if (rec.irq == mem::kIrqDevcfg) continue;  // boot-enabled, shared routing
    if (rec.enabled == gic.is_enabled(rec.irq)) continue;
    if (!rec.enabled) {
      // Under SMP the GIC enable bit is the OR over all on-CPU VMs' wishes:
      // a source this VM disabled legitimately stays unmasked while a
      // sibling core's current VM holds it registered and enabled (per-IRQ
      // targeting routes it to that core, not here).
      bool shared_enabled = false;
      for (u32 c = 0; c < insp_.num_cores() && !shared_enabled; ++c) {
        const ProtectionDomain* oc = insp_.core(c).current_vm();
        if (oc == nullptr || oc == cur) continue;
        shared_enabled =
            oc->vgic().is_registered(rec.irq) && oc->vgic().is_enabled(rec.irq);
      }
      if (shared_enabled) continue;
    }
    add(out, Oracle::kIrqUnmaskDiscipline,
        "current pd '" + cur->name() + "' irq " + std::to_string(rec.irq) +
            (rec.enabled ? " virtually enabled but masked at the GIC"
                         : " virtually disabled but unmasked at the GIC"));
  }
}

// ---- (5) scheduler queues partition live PDs --------------------------------
void InvariantSuite::check_sched_partition(std::vector<Violation>& out) const {
  // Under SMP the partition property is global: every live non-halted PD
  // appears exactly once across the union of *all* cores' run + suspend
  // queues. Work stealing and migration move PDs between queues but must
  // never duplicate or drop one.
  std::map<const ProtectionDomain*, u32> seen;  // pd -> queue appearances
  for (u32 c = 0; c < insp_.num_cores(); ++c) {
    const auto& sched = insp_.core(c).runqueue();
    for (u32 prio = 0; prio < nova::Scheduler::kNumPriorities; ++prio)
      for (const ProtectionDomain* pd : sched.level_queue(prio)) {
        ++seen[pd];
        if (pd->priority() != prio)
          add(out, Oracle::kSchedPartition,
              "pd '" + pd->name() + "' (prio " +
                  std::to_string(pd->priority()) + ") queued at level " +
                  std::to_string(prio) + " on core " + std::to_string(c));
      }
    for (const ProtectionDomain* pd : sched.suspended_queue()) ++seen[pd];
  }

  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;
    const u32 n = seen.count(pd) ? seen[pd] : 0;
    if (pd->state() == nova::PdState::kHalted) {
      if (n != 0)
        add(out, Oracle::kSchedPartition,
            "halted pd '" + pd->name() + "' still queued");
    } else if (n != 1) {
      add(out, Oracle::kSchedPartition,
          "pd '" + pd->name() + "' appears " + std::to_string(n) +
              " times across run+suspend queues (want 1)");
    }
  }
}

// ---- (6) remaining quantum never exceeds the default slice ------------------
void InvariantSuite::check_quantum_bound(std::vector<Violation>& out) const {
  const cycles_t def = insp_.scheduler().default_quantum();
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;
    if (pd->quantum_left > def)
      add(out, Oracle::kQuantumBound,
          "pd '" + pd->name() + "' quantum_left=" +
              std::to_string(pd->quantum_left) + " > default=" +
              std::to_string(def));
  }
}

// ---- (7) portal denial flags match capabilities -----------------------------
void InvariantSuite::check_portal_caps(std::vector<Violation>& out) const {
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;
    for (u32 n = 0; n < nova::kNumHypercalls; ++n) {
      const u32 need = nova::portal_required_caps(nova::Hypercall(n));
      const bool should_deny = (pd->caps() & need) != need;
      if (pd->portals().at(n).denied != should_deny)
        add(out, Oracle::kPortalCaps,
            "pd '" + pd->name() + "' portal " + std::to_string(n) +
                (should_deny ? " not denied despite missing caps (need "
                             : " denied despite holding caps (need ") +
                hex(need) + ", has " + hex(pd->caps()) + ")");
    }
  }
}

// ---- (8) PRR interface pages belong to exactly the client -------------------
void InvariantSuite::check_prr_ownership(std::vector<Violation>& out) const {
  if (mgr_ == nullptr || insp_.in_manager_service() || mgr_->in_service()) return;
  const ProtectionDomain* manager = insp_.manager();
  auto& ctl = insp_.platform().prr_controller();

  // Per-entry checks: the client's interface VA resolves to this PRR's
  // register-group page and the allocated PL IRQ routes to the client.
  for (u32 idx = 0; idx < mgr_->num_prrs(); ++idx) {
    const auto& e = mgr_->prr_entry(idx);
    if (e.client == kInvalidPd) continue;  // released regions may keep state
    const ProtectionDomain* client = nullptr;
    for (u32 i = 0; i < insp_.pd_count(); ++i)
      if (insp_.pd(i) != nullptr && insp_.pd(i)->id() == e.client)
        client = insp_.pd(i);
    if (client == nullptr || client == manager) {
      add(out, Oracle::kPrrOwnership,
          "prr " + std::to_string(idx) + " client id " +
              std::to_string(e.client) + " is not a VM");
      continue;
    }
    if (e.irq_index != 0xFFFF'FFFFu) {
      const u32 gic_irq = pl::PrrController::gic_irq_for(e.irq_index);
      if (insp_.irq_owner(gic_irq) != e.client)
        add(out, Oracle::kPrrOwnership,
            "prr " + std::to_string(idx) + " PL irq " +
                std::to_string(gic_irq) + " routed to pd id " +
                std::to_string(insp_.irq_owner(gic_irq)) + ", not client " +
                std::to_string(e.client));
    }
  }

  // Live-binding checks: for every (client, VA) -> PRR binding the manager
  // holds, the client's VA must resolve to exactly that PRR's register-group
  // page, and the PRR table must agree on who owns the region. (The per-PRR
  // table may keep stale client/VA records for warm released regions, so the
  // forward mapping check anchors here, not on the table.)
  for (const auto& [key, idx] : mgr_->iface_bindings()) {
    const auto [client_id, va] = key;
    const ProtectionDomain* client = nullptr;
    for (u32 i = 0; i < insp_.pd_count(); ++i)
      if (insp_.pd(i) != nullptr && insp_.pd(i)->id() == client_id)
        client = insp_.pd(i);
    if (client == nullptr || client == manager) {
      add(out, Oracle::kPrrOwnership,
          "iface binding for pd id " + std::to_string(client_id) +
              " which is not a VM");
      continue;
    }
    if (idx >= mgr_->num_prrs() || mgr_->prr_entry(idx).client != client_id) {
      add(out, Oracle::kPrrOwnership,
          "iface binding '" + client->name() + "' va=" + hex(va) + " -> prr " +
              std::to_string(idx) + " but table says client id " +
              std::to_string(idx < mgr_->num_prrs()
                                 ? u64(mgr_->prr_entry(idx).client)
                                 : u64(kInvalidPd)));
      continue;
    }
    if (!client->has_space()) {
      add(out, Oracle::kPrrOwnership,
          "iface binding '" + client->name() + "' va=" + hex(va) +
              " but client has no address space");
      continue;
    }
    const auto pa = client->space().translate_raw(va);
    if (!pa || (*pa >> 12) != (ctl.reg_group_pa(idx) >> 12))
      add(out, Oracle::kPrrOwnership,
          "iface binding '" + client->name() + "' va=" + hex(va) +
              (pa ? " maps " + hex(*pa) : " unmapped") + " (want " +
              hex(ctl.reg_group_pa(idx)) + ")");
  }

  // Global scan: no PD may map a register-group page it does not own, and
  // the global-control/PCAP device pages are manager-only.
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr || !pd->has_space()) continue;
    for (u32 p = 0; p < kIfaceScanPages; ++p) {
      const vaddr_t va = nova::kGuestHwIfaceVa + p * mmu::kPageSize;
      const auto pa = pd->space().translate_raw(va);
      if (!pa) continue;
      if (in_range(*pa, mem::kPrrCtrlBase,
                   mem::kPrrMaxRegions * mem::kPrrRegGroupStride)) {
        const u32 idx = u32((*pa - mem::kPrrCtrlBase) / mem::kPrrRegGroupStride);
        if (idx >= mgr_->num_prrs() || mgr_->prr_entry(idx).client != pd->id())
          add(out, Oracle::kPrrOwnership,
              "pd '" + pd->name() + "' maps register group of prr " +
                  std::to_string(idx) + " it does not own (va=" + hex(va) +
                  ")");
      } else if ((in_range(*pa, mem::kPrrGlobalRegsBase, mmu::kPageSize) ||
                  in_range(*pa, mem::kDevcfgBase, mem::kDevcfgSize)) &&
                 pd != manager) {
        add(out, Oracle::kPrrOwnership,
            "pd '" + pd->name() + "' maps manager-only device page pa=" +
                hex(*pa));
      }
    }
  }
}

// ---- (9) hwMMU windows stay inside the client's data section ----------------
void InvariantSuite::check_hwmmu_window(std::vector<Violation>& out) const {
  if (mgr_ == nullptr || insp_.in_manager_service() || mgr_->in_service()) return;
  auto& ctl = insp_.platform().prr_controller();
  for (u32 idx = 0; idx < mgr_->num_prrs() && idx < ctl.num_prrs(); ++idx) {
    const auto& e = mgr_->prr_entry(idx);
    if (e.client == kInvalidPd) continue;  // release zeroes lazily
    const ProtectionDomain* client = nullptr;
    for (u32 i = 0; i < insp_.pd_count(); ++i)
      if (insp_.pd(i) != nullptr && insp_.pd(i)->id() == e.client)
        client = insp_.pd(i);
    if (client == nullptr) continue;  // reported by the ownership oracle
    const auto& p = ctl.prr(idx);
    if (p.hwmmu_size == 0) continue;
    if (p.hwmmu_base < client->hw_data_pa ||
        paddr_t(p.hwmmu_base) + p.hwmmu_size >
            paddr_t(client->hw_data_pa) + client->hw_data_size)
      add(out, Oracle::kHwMmuWindow,
          "prr " + std::to_string(idx) + " hwMMU window [" + hex(p.hwmmu_base) +
              ", +" + hex(p.hwmmu_size) + ") outside client '" +
              client->name() + "' data section [" + hex(client->hw_data_pa) +
              ", +" + hex(client->hw_data_size) + ")");
  }
}

// ---- (10) TLB contents agree with the page tables ---------------------------
void InvariantSuite::check_tlb_coherence(std::vector<Violation>& out) const {
  // asid -> PD must be a function for the replay below. Only PDs holding a
  // *current-generation* tag can own TLB entries: the rollover path flushes
  // the whole TLB, and stale-generation PDs are retagged before they run
  // again (ensure_asid_current), so their old numeric ASID may legitimately
  // be reissued to another PD meanwhile. (Full (asid, generation) uniqueness
  // across all live PDs is the kAsidUniqueness oracle.)
  const u32 gen = insp_.asid_generation();
  std::map<u32, const ProtectionDomain*> by_asid;
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr || pd->vcpu().asid_gen() != gen) continue;
    const auto [it, inserted] = by_asid.emplace(pd->vcpu().asid(), pd);
    if (!inserted)
      add(out, Oracle::kTlbCoherence,
          "asid " + std::to_string(pd->vcpu().asid()) + " shared by '" +
              it->second->name() + "' and '" + pd->name() + "'");
  }

  const auto* kspace = insp_.kernel_space();
  for (const auto& e : insp_.platform().cpu().tlb().entry_array()) {
    if (!e.valid) continue;
    const mmu::AddressSpace* space = nullptr;
    std::string owner;
    if (e.global) {
      space = kspace;  // global mappings are identical in every space
      owner = "kernel";
    } else {
      const auto it = by_asid.find(e.asid);
      if (it == by_asid.end()) {
        add(out, Oracle::kTlbCoherence,
            "tlb entry vpage=" + hex(e.vpage) + " carries unknown asid " +
                std::to_string(e.asid));
        continue;
      }
      if (!it->second->has_space()) {
        add(out, Oracle::kTlbCoherence,
            "tlb entry vpage=" + hex(e.vpage) + " carries asid of lazy pd '" +
                it->second->name() + "' which has no address space");
        continue;
      }
      space = &it->second->space();
      owner = it->second->name();
    }
    if (space == nullptr) continue;
    // For a section entry, vpage/ppage hold the section base's 4K pages.
    const vaddr_t va = e.vpage << 12;
    const auto pa = space->translate_raw(va);
    if (!pa || (*pa >> 12) != e.ppage)
      add(out, Oracle::kTlbCoherence,
          "tlb entry (" + owner + ") va=" + hex(va) + " caches ppage=" +
              hex(e.ppage) + " but tables say " +
              (pa ? hex(*pa >> 12) : std::string("unmapped")));
  }
}

// ---- (11) kernel-heap accounting matches the live object population ---------
//
// Every heap object is owned by a live kernel object: one vCPU save area per
// PD, one vGIC record list per PD that has materialized it, one ring buffer
// per IVC channel, one control block per PD. Any destroy path that forgets a
// free — or frees twice without the heap noticing — breaks the equality.
// This is the churn-leak oracle: create/destroy storms must hold it at every
// trap exit.
void InvariantSuite::check_object_leak(std::vector<Violation>& out) const {
  const nova::KernelHeap& heap = insp_.heap();
  u64 want_blocks = insp_.channel_count();  // one ring buffer per channel
  u64 want_ctrl = 0;
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;
    want_blocks += 1;  // vCPU save area
    if (pd->vgic().has_area()) ++want_blocks;
    ++want_ctrl;  // PD descriptor control block
  }
  if (heap.live_blocks() != want_blocks)
    add(out, Oracle::kObjectLeak,
        "heap holds " + std::to_string(heap.live_blocks()) +
            " live blocks but live objects account for " +
            std::to_string(want_blocks));
  if (heap.ctrl_live() != want_ctrl)
    add(out, Oracle::kObjectLeak,
        "heap control region holds " + std::to_string(heap.ctrl_live()) +
            " live blocks but " + std::to_string(want_ctrl) +
            " PDs are alive");
}

// ---- (12) live (ASID, generation) tags are unique and non-null --------------
void InvariantSuite::check_asid_uniqueness(std::vector<Violation>& out) const {
  std::map<std::pair<u32, u32>, const ProtectionDomain*> seen;
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr) continue;
    const u32 asid = pd->vcpu().asid();
    const u32 gen = pd->vcpu().asid_gen();
    if (asid == 0 || asid > 255) {
      add(out, Oracle::kAsidUniqueness,
          "live pd '" + pd->name() + "' carries invalid asid " +
              std::to_string(asid));
      continue;
    }
    const auto [it, inserted] = seen.emplace(std::make_pair(asid, gen), pd);
    if (!inserted)
      add(out, Oracle::kAsidUniqueness,
          "(asid " + std::to_string(asid) + ", gen " + std::to_string(gen) +
              ") shared by live pds '" + it->second->name() + "' and '" +
              pd->name() + "'");
  }
}

// ---- (13) queue membership agrees with core affinity ------------------------
//
// Work stealing and migration are the only paths that move a PD between
// cores, and both update run_core under the same "lock" (the take/enqueue
// pair). A PD sitting in core i's queues with run_core != i means one of
// those paths half-completed — the SMP analogue of a lost queue lock.
void InvariantSuite::check_core_partition(std::vector<Violation>& out) const {
  const ProtectionDomain* manager = insp_.manager();
  for (u32 c = 0; c < insp_.num_cores(); ++c) {
    const auto cv = insp_.core(c);
    const auto& sched = cv.runqueue();
    for (u32 prio = 0; prio < nova::Scheduler::kNumPriorities; ++prio)
      for (const ProtectionDomain* pd : sched.level_queue(prio))
        if (pd->run_core != c)
          add(out, Oracle::kCorePartition,
              "pd '" + pd->name() + "' (run_core " +
                  std::to_string(pd->run_core) + ") queued on core " +
                  std::to_string(c));
    for (const ProtectionDomain* pd : sched.suspended_queue())
      if (pd->run_core != c)
        add(out, Oracle::kCorePartition,
            "pd '" + pd->name() + "' (run_core " +
                std::to_string(pd->run_core) + ") suspended on core " +
                std::to_string(c));
    // The manager executes synchronously on whichever core invoked it while
    // parked in core 0's suspend queue, so it is exempt from the current
    // check (its queue residency is still covered above).
    const ProtectionDomain* cur = cv.current_vm();
    if (cur != nullptr && cur != manager && cur->run_core != c)
      add(out, Oracle::kCorePartition,
          "pd '" + cur->name() + "' (run_core " +
              std::to_string(cur->run_core) + ") is current on core " +
              std::to_string(c));
  }
}

// ---- (14) shootdown completion accounting balances --------------------------
//
// Every kIpiTlbShootdown the initiator sends is eventually acked by exactly
// one drain on the target, and acks never run ahead of the global epoch.
// A core whose mailbox holds no shootdown IPIs has processed everything
// sent to it, so its ack epoch must equal the latest epoch (every epoch
// bump broadcasts to every other core; the initiator self-acks at send).
void InvariantSuite::check_shootdown_complete(std::vector<Violation>& out) const {
  const u64 epoch = insp_.tlb_epoch();
  u64 acked = 0;
  u64 in_flight = 0;
  for (u32 c = 0; c < insp_.num_cores(); ++c) {
    const auto cv = insp_.core(c);
    acked += cv.shootdowns_acked();
    in_flight += cv.pending_shootdowns();
    if (cv.shootdown_ack_epoch() > epoch)
      add(out, Oracle::kShootdownComplete,
          "core " + std::to_string(c) + " ack epoch " +
              std::to_string(cv.shootdown_ack_epoch()) +
              " ahead of global epoch " + std::to_string(epoch));
    if (insp_.num_cores() > 1 && cv.pending_shootdowns() == 0 &&
        cv.shootdown_ack_epoch() != epoch)
      add(out, Oracle::kShootdownComplete,
          "core " + std::to_string(c) + " idle mailbox but ack epoch " +
              std::to_string(cv.shootdown_ack_epoch()) + " != global " +
              std::to_string(epoch));
  }
  if (insp_.shootdowns_sent() != acked + in_flight)
    add(out, Oracle::kShootdownComplete,
        "sent " + std::to_string(insp_.shootdowns_sent()) + " != acked " +
            std::to_string(acked) + " + in-flight " +
            std::to_string(in_flight));
}

// ---- (15) no PD is current on two cores at once -----------------------------
//
// The single hardware context (register file, live MMU state) is swapped
// between per-core saved contexts; a PD current on two cores would mean two
// cores replay the same vCPU — guest state divergence on the next save.
void InvariantSuite::check_core_exclusivity(std::vector<Violation>& out) const {
  std::map<const ProtectionDomain*, u32> first_core;
  for (u32 c = 0; c < insp_.num_cores(); ++c) {
    const ProtectionDomain* cur = insp_.core(c).current_vm();
    if (cur == nullptr) continue;
    const auto [it, inserted] = first_core.emplace(cur, c);
    if (!inserted)
      add(out, Oracle::kCoreExclusivity,
          "pd '" + cur->name() + "' is current on both core " +
              std::to_string(it->second) + " and core " + std::to_string(c));
  }
}

// ---- (16) launch ledger agrees with the PRR table and the fabric ------------
//
// The manager records every grant/regrant in a ledger independent of the PRR
// table; an entry that disagrees means some path updated one bookkeeping
// structure but not the other — the precursor to a region running a task its
// recorded client never launched. Deferred while the manager service is
// mid-update (like the other manager-state oracles).
void InvariantSuite::check_hw_launch_ledger(std::vector<Violation>& out) const {
  if (mgr_ == nullptr || insp_.in_manager_service() || mgr_->in_service()) return;
  const auto& ledger = mgr_->launch_ledger();
  auto& ctl = insp_.platform().prr_controller();
  for (u32 idx = 0; idx < mgr_->num_prrs() && idx < u32(ledger.size()); ++idx) {
    const auto& e = mgr_->prr_entry(idx);
    const auto& l = ledger[idx];
    if (e.client == kInvalidPd) {
      if (l.client != kInvalidPd)
        add(out, Oracle::kHwLaunchLedger,
            "prr " + std::to_string(idx) + " unowned but ledger records "
                "client id " + std::to_string(l.client));
      continue;
    }
    if (l.client != e.client || l.task != e.task) {
      add(out, Oracle::kHwLaunchLedger,
          "prr " + std::to_string(idx) + " table says client " +
              std::to_string(e.client) + " task " + std::to_string(e.task) +
              " but ledger says client " + std::to_string(l.client) +
              " task " + std::to_string(l.task));
      continue;
    }
    // Fabric agreement: an owned, settled region runs exactly the task the
    // ledger's client launched (dark regions — failed downloads — are fine;
    // so is the backoff window between a failed transfer and its retry,
    // where the old task is still resident).
    const auto& hw = ctl.prr(idx);
    if (!e.reconfiguring && !hw.reconfiguring &&
        !mgr_->reconfig_undecided(l.client, idx) &&
        hw.loaded_task != hwtask::kInvalidTask && hw.loaded_task != l.task)
      add(out, Oracle::kHwLaunchLedger,
          "prr " + std::to_string(idx) + " runs task " +
              std::to_string(hw.loaded_task) + " but ledger client " +
              std::to_string(l.client) + " launched task " +
              std::to_string(l.task) + " (table task " +
              std::to_string(e.task) + ")");
  }
}

// ---- (17) preemption saves round-trip through the §IV.C record --------------
//
// Direction 1 (unconditional): every outstanding save of a live client must
// be mirrored exactly in the client's data-section record — inconsistent
// flag, task id, and all eight register words. Direction 2 (priorities on
// only — legacy reclaim writes inconsistent records with no save): a live
// client whose record says inconsistent must have a save outstanding.
void InvariantSuite::check_hw_save_restore(std::vector<Violation>& out) const {
  if (mgr_ == nullptr || insp_.in_manager_service() || mgr_->in_service()) return;
  auto find_pd = [&](PdId id) -> const ProtectionDomain* {
    for (u32 i = 0; i < insp_.pd_count(); ++i)
      if (insp_.pd(i) != nullptr && insp_.pd(i)->id() == id)
        return insp_.pd(i);
    return nullptr;
  };
  auto& dram = insp_.platform().dram();

  for (const auto& [client, saved] : mgr_->saved_contexts()) {
    const ProtectionDomain* pd = find_pd(client);
    if (pd == nullptr) {
      add(out, Oracle::kHwSaveRestore,
          "outstanding save for dead client id " + std::to_string(client));
      continue;
    }
    const paddr_t rec =
        pd->hw_data_pa + hwmgr::consistency_offset(pd->hw_data_size);
    const u32 state = dram.read32(rec);
    const u32 task = dram.read32(rec + 4);
    if (state != hwmgr::kStateInconsistent || task != saved.task) {
      add(out, Oracle::kHwSaveRestore,
          "save outstanding for '" + pd->name() + "' (task " +
              std::to_string(saved.task) + ") but record says state=" +
              std::to_string(state) + " task=" + std::to_string(task));
      continue;
    }
    for (u32 w = 0; w < 8; ++w) {
      const u32 v = dram.read32(rec + 8 + w * 4);
      if (v != saved.regs[w]) {
        add(out, Oracle::kHwSaveRestore,
            "saved reg[" + std::to_string(w) + "] of '" + pd->name() +
                "' is " + hex(saved.regs[w]) + " but record holds " + hex(v));
        break;
      }
    }
  }

  if (!mgr_->sched_config().priorities) return;
  const ProtectionDomain* manager = insp_.manager();
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr || pd == manager || pd->hw_data_size == 0) continue;
    const paddr_t rec =
        pd->hw_data_pa + hwmgr::consistency_offset(pd->hw_data_size);
    if (dram.read32(rec) == hwmgr::kStateInconsistent &&
        mgr_->saved_contexts().count(pd->id()) == 0)
      add(out, Oracle::kHwSaveRestore,
          "record of '" + pd->name() +
              "' says inconsistent but no preemption save is outstanding");
  }
}

// ---- (18) per-VM grants never exceed the quota ------------------------------
void InvariantSuite::check_hw_quota(std::vector<Violation>& out) const {
  if (mgr_ == nullptr || insp_.in_manager_service() || mgr_->in_service()) return;
  const ProtectionDomain* manager = insp_.manager();
  for (u32 i = 0; i < insp_.pd_count(); ++i) {
    const ProtectionDomain* pd = insp_.pd(i);
    if (pd == nullptr || pd == manager) continue;
    const u32 quota = mgr_->effective_quota(pd->id());
    if (quota == 0) continue;  // unlimited
    const u32 in_use = mgr_->grants_in_use(pd->id());
    if (in_use > quota)
      add(out, Oracle::kHwQuota,
          "'" + pd->name() + "' consumes " + std::to_string(in_use) +
              " grants against a quota of " + std::to_string(quota));
  }
}

// ---- (19) cache entries always name a task-table bitstream ------------------
void InvariantSuite::check_hw_cache_valid(std::vector<Violation>& out) const {
  if (mgr_ == nullptr || insp_.in_manager_service() || mgr_->in_service()) return;
  const auto& cache = mgr_->bitstream_cache();
  const u32 cap = mgr_->sched_config().cache_capacity;
  if (cache.size() > cap)
    add(out, Oracle::kHwCacheValid,
        "cache holds " + std::to_string(cache.size()) +
            " entries over capacity " + std::to_string(cap));
  const auto& lib = insp_.platform().task_library();
  for (const auto& e : cache) {
    if (lib.find(e.task) == nullptr) {
      add(out, Oracle::kHwCacheValid,
          "cache entry for task " + std::to_string(e.task) +
              " which the task table does not know");
      continue;
    }
    if (e.len == 0 || !in_range(e.pa, nova::kBitstreamBase,
                                nova::kBitstreamSize) ||
        !in_range(e.pa + e.len - 1, nova::kBitstreamBase, nova::kBitstreamSize))
      add(out, Oracle::kHwCacheValid,
          "cache entry for task " + std::to_string(e.task) +
              " names image [" + hex(e.pa) + ", +" + std::to_string(e.len) +
              ") outside the bitstream store");
  }
}

// ---- (20) supervisor slots agree with the kernel's PD population ------------
//
// A live slot is backed by exactly one kernel PD (with a guest attached) and
// sits in a running health state; a torn-down slot holds no PdId and is in a
// terminal state. A mismatch means a reap or restart half-completed — the
// supervisor believes in a VM the kernel no longer has, or vice versa.
void InvariantSuite::check_sv_containment(std::vector<Violation>& out) const {
  const nova::Supervisor* sup = insp_.supervisor();
  if (sup == nullptr) return;
  auto find_pd = [&](PdId id) -> const ProtectionDomain* {
    for (u32 i = 0; i < insp_.pd_count(); ++i)
      if (insp_.pd(i) != nullptr && insp_.pd(i)->id() == id)
        return insp_.pd(i);
    return nullptr;
  };
  for (u32 s = 0; s < sup->slot_count(); ++s) {
    const auto& r = sup->record(s);
    if (r.live) {
      const ProtectionDomain* pd = find_pd(r.pd);
      if (pd == nullptr) {
        add(out, Oracle::kSvContainment,
            "live slot " + std::to_string(s) + " names pd id " +
                std::to_string(r.pd) + " which the kernel does not have");
        continue;
      }
      if (pd->guest() == nullptr)
        add(out, Oracle::kSvContainment,
            "live slot " + std::to_string(s) + " pd '" + pd->name() +
                "' has no guest attached");
      if (r.health != nova::VmHealth::kHealthy &&
          r.health != nova::VmHealth::kDegraded)
        add(out, Oracle::kSvContainment,
            "live slot " + std::to_string(s) + " in terminal health state '" +
                nova::vm_health_name(r.health) + "'");
    } else {
      if (r.pd != kInvalidPd)
        add(out, Oracle::kSvContainment,
            "torn-down slot " + std::to_string(s) + " still holds pd id " +
                std::to_string(r.pd));
      if (r.health != nova::VmHealth::kCrashed &&
          r.health != nova::VmHealth::kQuarantined)
        add(out, Oracle::kSvContainment,
            "torn-down slot " + std::to_string(s) + " in health state '" +
                nova::vm_health_name(r.health) + "'");
    }
  }
}

// ---- (21) condemnations balance against restart/quarantine outcomes ---------
//
// Every condemnation (fatal trap or watchdog fire) ends in exactly one of:
// a completed restart, a quarantine, or a still-pending reap/backoff. The
// equation catches both a lost crash (condemned VM silently forgotten) and
// a forged restart (restart counted without a matching crash).
void InvariantSuite::check_sv_restart_ledger(std::vector<Violation>& out) const {
  const nova::Supervisor* sup = insp_.supervisor();
  if (sup == nullptr) return;
  const auto& st = sup->stats();
  u64 pending = 0;
  u64 incarnations = 0;
  for (u32 s = 0; s < sup->slot_count(); ++s) {
    const auto& r = sup->record(s);
    incarnations += r.incarnation;
    // Condemned-but-unreaped (the trap's own introspection event fires
    // before the run loop reaps) or reaped-and-backoff-running.
    if ((r.live && r.condemned) ||
        (!r.live && r.health == nova::VmHealth::kCrashed))
      ++pending;
    if (r.restarts_in_window > r.policy.max_restarts)
      add(out, Oracle::kSvRestartLedger,
          "slot " + std::to_string(s) + " records " +
              std::to_string(r.restarts_in_window) +
              " restarts in window, over the policy cap of " +
              std::to_string(r.policy.max_restarts));
  }
  if (st.crashes + st.watchdog_fires !=
      st.restarts + st.quarantines + pending)
    add(out, Oracle::kSvRestartLedger,
        "condemnations " + std::to_string(st.crashes + st.watchdog_fires) +
            " (crashes " + std::to_string(st.crashes) + " + watchdog " +
            std::to_string(st.watchdog_fires) + ") != restarts " +
            std::to_string(st.restarts) + " + quarantines " +
            std::to_string(st.quarantines) + " + pending " +
            std::to_string(pending));
  if (incarnations != st.restarts)
    add(out, Oracle::kSvRestartLedger,
        "slot incarnations sum to " + std::to_string(incarnations) +
            " but the restart stat says " + std::to_string(st.restarts));
}

// ---- (22) quarantine is terminal and fully accounted ------------------------
void InvariantSuite::check_sv_quarantine(std::vector<Violation>& out) const {
  const nova::Supervisor* sup = insp_.supervisor();
  if (sup == nullptr) return;
  u64 quarantined = 0;
  for (u32 s = 0; s < sup->slot_count(); ++s) {
    const auto& r = sup->record(s);
    if (r.health != nova::VmHealth::kQuarantined) continue;
    ++quarantined;
    if (r.live)
      add(out, Oracle::kSvQuarantine,
          "quarantined slot " + std::to_string(s) + " still backs a live VM");
  }
  if (quarantined != sup->stats().quarantines)
    add(out, Oracle::kSvQuarantine,
        std::to_string(quarantined) + " quarantined slots but the stat says " +
            std::to_string(sup->stats().quarantines));
}

}  // namespace minova::fuzz
