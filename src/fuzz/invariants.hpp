// System-wide invariant oracles over live kernel state.
//
// Each oracle states a global property the paper's isolation story depends
// on, checked against the read-only KernelInspector facade after every trap
// exit and VM switch. Oracles are pure observers: const queries only, zero
// simulated cycles, so running them at any frequency cannot perturb the
// simulation — the property that makes {seed, step} failure reproduction
// bit-identical.
//
// Catalogue (DESIGN.md §11 documents each in detail):
//   kFrameExclusivity  no two PDs map the same private DRAM frame; every
//                      guest-reachable frame lies in the owner's own slab
//   kDacrMode          each PD's saved DACR matches its privilege mode
//                      (Table II), and the live MMU DACR matches current's
//   kIrqMaskDiscipline a descheduled VM's registered physical sources are
//                      masked at the GIC (unless shared with current)
//   kIrqUnmaskDiscipline the current VM's registered sources are unmasked
//                      exactly when virtually enabled
//   kSchedPartition    run + suspend queues partition live PDs, no
//                      duplicates, halted PDs queued nowhere
//   kQuantumBound      every PD's remaining quantum <= the default slice
//   kPortalCaps        portal denial flags match PdCaps-derived authority
//   kPrrOwnership      every client-held PRR: interface page mapped by
//                      exactly the owning VM, PL IRQ routed to it
//   kHwMmuWindow       every client-held PRR's hwMMU window lies inside
//                      the client's hardware-task data section
//   kTlbCoherence      ASIDs are unique per PD and every valid TLB entry
//                      agrees with the owning space's page tables
//   kObjectLeak        kernel-heap accounting matches the live object
//                      population exactly (destroying a VM leaks nothing)
//   kAsidUniqueness    no two live PDs share an (ASID, generation) tag and
//                      no live PD carries the null ASID
//   kCorePartition     queue membership agrees with core affinity: a PD in
//                      core i's run/suspend queues has run_core == i, and a
//                      core's current PD is homed on that core (the manager
//                      is exempt: it executes synchronously on the invoking
//                      core while parked in core 0's suspend queue)
//   kShootdownComplete TLB shootdown completion accounting balances:
//                      sent == Σ acked + in-flight mailbox entries, no ack
//                      epoch runs ahead of the global epoch, and a core with
//                      an empty shootdown mailbox has acked the latest epoch
//   kCoreExclusivity   no PD is current on two simulated cores at once
//   kHwLaunchLedger    the manager's independent launch ledger agrees with
//                      the PRR table and the fabric: no PRR runs a task its
//                      recorded client didn't launch
//   kHwSaveRestore     a client's §IV.C record is kStateInconsistent iff a
//                      preemption save is outstanding, and the saved
//                      registers round-trip exactly through the record
//   kHwQuota           no client's grants (owned regions + queued requests)
//                      exceed its effective hardware-task quota
//   kHwCacheValid      every bitstream-cache entry names a task-table
//                      bitstream and matches its store location
//   kSvContainment     every live supervisor slot is backed by a kernel PD
//                      with a guest attached; every torn-down slot holds no
//                      PdId and sits in a terminal health state
//   kSvRestartLedger   condemnations balance against outcomes: crashes +
//                      watchdog fires == restarts + quarantines + pending
//                      reaps/restarts, and incarnation counts sum to the
//                      restart stat
//   kSvQuarantine      a quarantined slot is torn down for good, and the
//                      quarantine stat equals the quarantined-slot count
//
// The three supervisor oracles are vacuous when the kernel runs without a
// supervisor (the default), so they cost legacy shards nothing.
// The three SMP oracles are vacuous on a unicore kernel (empty mailboxes,
// zero epochs, one current), so enabling them costs unicore shards nothing.
// The four PRR-scheduler oracles are likewise vacuous (or reduce to
// ledger/table agreement) when the scheduler is default-off.
//
// Mapping-level oracles (frames, PRR ownership, hwMMU) are deferred while
// the manager service runs inside a client's hypercall: its tables are
// legitimately mid-update there, and the oracle re-runs at the VM switch
// back to the client.
#pragma once

#include <string>
#include <vector>

#include "nova/inspector.hpp"

namespace minova::hwmgr {
class ManagerService;
}

namespace minova::fuzz {

enum class Oracle : u8 {
  kFrameExclusivity = 0,
  kDacrMode,
  kIrqMaskDiscipline,
  kIrqUnmaskDiscipline,
  kSchedPartition,
  kQuantumBound,
  kPortalCaps,
  kPrrOwnership,
  kHwMmuWindow,
  kTlbCoherence,
  kObjectLeak,
  kAsidUniqueness,
  // SMP oracles (appended so pre-SMP failure digests keep their numbering).
  kCorePartition,
  kShootdownComplete,
  kCoreExclusivity,
  // PRR-scheduler oracles (appended so SMP-era digests keep their numbering).
  kHwLaunchLedger,
  kHwSaveRestore,
  kHwQuota,
  kHwCacheValid,
  // Supervisor oracles (appended so PRR-era digests keep their numbering).
  kSvContainment,
  kSvRestartLedger,
  kSvQuarantine,
  kCount,
};

inline constexpr u32 kNumOracles = u32(Oracle::kCount);

const char* oracle_name(Oracle o);

struct Violation {
  Oracle oracle = Oracle::kCount;
  std::string detail;
};

class InvariantSuite {
 public:
  /// `mgr` may be null (scenarios without the DPR subsystem); the PRR and
  /// hwMMU oracles are then vacuous.
  InvariantSuite(const nova::KernelInspector& insp,
                 const hwmgr::ManagerService* mgr)
      : insp_(insp), mgr_(mgr) {}

  /// Run one oracle, appending violations.
  void check(Oracle o, std::vector<Violation>& out) const;

  /// The cheap tier: every oracle that costs O(PDs + records).
  std::vector<Violation> check_cheap() const;
  /// The scan tier: page-table sweeps and TLB replay (O(pages)).
  std::vector<Violation> check_heavy() const;

  /// True for oracles in the scan tier.
  static bool is_heavy(Oracle o);

 private:
  void check_frame_exclusivity(std::vector<Violation>& out) const;
  void check_dacr_mode(std::vector<Violation>& out) const;
  void check_irq_mask(std::vector<Violation>& out) const;
  void check_irq_unmask(std::vector<Violation>& out) const;
  void check_sched_partition(std::vector<Violation>& out) const;
  void check_quantum_bound(std::vector<Violation>& out) const;
  void check_portal_caps(std::vector<Violation>& out) const;
  void check_prr_ownership(std::vector<Violation>& out) const;
  void check_hwmmu_window(std::vector<Violation>& out) const;
  void check_tlb_coherence(std::vector<Violation>& out) const;
  void check_object_leak(std::vector<Violation>& out) const;
  void check_asid_uniqueness(std::vector<Violation>& out) const;
  void check_core_partition(std::vector<Violation>& out) const;
  void check_shootdown_complete(std::vector<Violation>& out) const;
  void check_core_exclusivity(std::vector<Violation>& out) const;
  void check_hw_launch_ledger(std::vector<Violation>& out) const;
  void check_hw_save_restore(std::vector<Violation>& out) const;
  void check_hw_quota(std::vector<Violation>& out) const;
  void check_hw_cache_valid(std::vector<Violation>& out) const;
  void check_sv_containment(std::vector<Violation>& out) const;
  void check_sv_restart_ledger(std::vector<Violation>& out) const;
  void check_sv_quarantine(std::vector<Violation>& out) const;

  const nova::KernelInspector& insp_;
  const hwmgr::ManagerService* mgr_;
};

}  // namespace minova::fuzz
