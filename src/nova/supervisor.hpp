// VM supervisor — the kernel's self-healing lifecycle layer (DESIGN.md §16).
//
// Mini-NOVA's isolation story (paper §III) stops at the boundary of a
// well-behaved guest: a VM that takes an unhandled undefined-instruction or
// abort, spins forever without yielding, or crash-loops had no containment
// path — only the manual destroy_vm primitive. The supervisor closes that
// gap with a per-VM health state machine
//
//     healthy ──fault──▶ degraded ──fatal/watchdog──▶ crashed ──policy──▶
//     (restart w/ exponential backoff) ──N restarts in window──▶ quarantined
//
// driven by three detectors:
//   (a) fatal-trap containment — an unhandled undefined/prefetch/data abort
//       raised by a guest (GuestContext::raise_fatal) condemns only that VM;
//       the run loop reaps it through the ordinary destroy_vm teardown
//       (PRRs via the §IV.C consistency record, ASIDs, VFP, IRQ routing,
//       IVC hangup virqs) instead of asserting the host;
//   (b) watchdog/hang detection — a per-VM budget of simulated CPU cycles
//       consumed without progress (petted on every hypercall, forwarded
//       fault and yield); a guest that burns through it spinning is
//       declared hung and condemned;
//   (c) crash-loop policy — crashed VMs restart with exponential backoff
//       (a fresh guest instance from a per-slot factory, IVC channels
//       re-bound); more than `max_restarts` crashes inside
//       `restart_window_us` quarantines the slot permanently.
//
// The subsystem is strictly opt-in: with `SupervisorConfig::enabled` false
// (the default) the kernel constructs no Supervisor and every hook is a
// null-pointer test — all Table III goldens, density numbers and fuzz
// digests stay bit-identical.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nova/guest_iface.hpp"
#include "nova/pd.hpp"
#include "sim/stats.hpp"

namespace minova::nova {

class Kernel;

/// Kernel-wide supervisor configuration (KernelConfig::supervisor), one
/// policy for every watched VM. Times are in microseconds here for config
/// ergonomics; the supervisor converts them to cycles once at construction.
struct SupervisorConfig {
  bool enabled = false;
  /// CPU budget a guest may consume without petting the watchdog
  /// (hypercall / forwarded fault / yield) before it is declared hung.
  double watchdog_us = 0.0;  // 0 = watchdog off
  /// Crashes tolerated inside one restart window before quarantine; 0
  /// quarantines on the first crash.
  u32 max_restarts = 3;
  /// Sliding window the restart counter lives in.
  double restart_window_us = 200'000.0;
  /// First restart delay; doubles per restart within the window.
  double backoff_base_us = 500.0;
};

/// Guest-observable health of a watched VM (also the packing returned by
/// the kSvcHealthQuery hypercall).
enum class VmHealth : u8 {
  kHealthy = 0,
  kDegraded = 1,   // forwarded-fault count crossed the degrade threshold
  kCrashed = 2,    // torn down, restart pending (backoff running)
  kQuarantined = 3 // torn down permanently; slot will not restart
};

const char* vm_health_name(VmHealth h);

class Supervisor {
 public:
  /// Builds the replacement guest for incarnation `n` (1 = first restart).
  using GuestFactory = std::function<std::unique_ptr<GuestOs>(u32 incarnation)>;
  /// Observer invoked on every health transition that creates or destroys
  /// a guest: (slot, new health, pd id, new guest or nullptr). Fired
  /// *before* teardown on crash/quarantine (the guest pointer is still
  /// valid so callers can harvest stats) and *after* creation on restart.
  using HealthObserver =
      std::function<void(u32 slot, VmHealth health, PdId pd, GuestOs* guest)>;

  struct VmRecord {
    PdId pd = kInvalidPd;   // kInvalidPd while torn down
    PdId prev_pd = kInvalidPd;  // id of the torn-down incarnation (rebind key)
    VmHealth health = VmHealth::kHealthy;
    bool live = false;      // a kernel PD currently backs this slot
    bool condemned = false; // detector fired; reap pending in the run loop
    u32 incarnation = 0;    // completed restarts for this slot
    u32 restarts_in_window = 0;
    u32 fatal_faults = 0;     // fatal traps taken across all incarnations
    u32 forwarded_faults = 0; // non-fatal forwarded faults (degrade counter)
    u32 watchdog_fires = 0;
    cycles_t cpu_since_pet = 0;
    cycles_t window_start = 0;
    cycles_t restart_at = 0;  // due time while kCrashed
    std::string name;
    u32 priority = 0;
    GuestFactory factory;
    std::vector<u32> channels;  // IVC channel ids re-bound on restart
  };

  struct Stats {
    u64 crashes = 0;         // fatal-trap condemnations
    u64 watchdog_fires = 0;  // hang condemnations
    u64 restarts = 0;        // completed restarts
    u64 quarantines = 0;     // slots permanently retired
  };

  Supervisor(Kernel& kernel, const SupervisorConfig& cfg);

  /// Forwarded (non-fatal) guest faults before health drops to degraded.
  static constexpr u32 kDegradeFaults = 16;

  /// Place `pd` under supervision. The factory builds replacement guests on
  /// restart. Records the VM's current IVC channel memberships for later
  /// re-binding. Returns the slot index.
  u32 watch(ProtectionDomain& pd, GuestFactory factory);

  void set_observer(HealthObserver obs) { observer_ = std::move(obs); }

  /// SupervisorConfig::max_restarts: the cap on `restarts_in_window`.
  u32 max_restarts() const { return max_restarts_; }

  // ---- detector hooks (kernel-internal; all O(1) on the watched set) ----
  /// Progress signal: hypercall issued, IRQ acked, fault forwarded, or the
  /// guest yielded. Resets the watchdog CPU accumulator.
  void pet(PdId pd);
  /// `pd` just consumed `used` simulated cycles of guest execution without
  /// an intervening pet. Fires the watchdog when the accumulated burn
  /// crosses the policy budget.
  void on_guest_ran(PdId pd, cycles_t used);
  /// A non-fatal fault was forwarded to `pd` (degrade accounting).
  void on_forwarded_fault(PdId pd);
  /// `pd` raised a fatal trap. True when the supervisor contains it (the
  /// VM is condemned and will be reaped by the run loop); false when the
  /// PD is unwatched — the caller falls back to legacy forwarding.
  bool on_fatal(PdId pd, FatalKind kind);
  /// True when a detector has condemned `pd` and the reap is pending.
  bool condemned(PdId pd) const;
  /// Tear down a condemned VM (destroy_vm + crash-loop bookkeeping). Must
  /// run from the scheduler loop, never from inside the victim's own
  /// hypercall. Charges one kernel service-call trap so observers see the
  /// post-teardown state at a defined event.
  void reap(ProtectionDomain& pd);
  /// Restart any crashed slot whose backoff deadline has passed.
  void poll();

  // ---- introspection (inspector/oracles/hypercall) ----
  u32 slot_count() const { return u32(records_.size()); }
  const VmRecord& record(u32 slot) const { return records_[slot]; }
  /// Record backing a live PdId, or nullptr when the id is unwatched.
  const VmRecord* record_for(PdId pd) const;
  /// Read back from the kernel.supervisor.* counters.
  Stats stats() const {
    return {c_crashes_.value(), c_watchdog_.value(), c_restarts_.value(),
            c_quarantines_.value()};
  }

  /// Deliberately corrupt supervisor state so the fuzzer's sv-* oracles can
  /// prove they fire (mutation checks ONLY): 1 = live record names a bogus
  /// PD (sv-containment), 2 = forge the restart ledger (sv-restart-ledger),
  /// 3 = mark a live record quarantined (sv-quarantine).
  void sabotage_for_test(u32 kind);

 private:
  VmRecord* find(PdId pd);
  void condemn(VmRecord& r);

  Kernel& kernel_;
  // SupervisorConfig, converted to cycles once.
  const cycles_t watchdog_cycles_;  // 0 = watchdog off
  const u32 max_restarts_;
  const cycles_t restart_window_cycles_;
  const cycles_t backoff_base_cycles_;
  HealthObserver observer_;
  std::vector<VmRecord> records_;
  u32 condemned_count_ = 0;  // fast-path gate for condemned()
  u32 crashed_count_ = 0;    // fast-path gate for poll()

  // kernel.supervisor.* counters, interned once: the one count of each
  // supervisor event.
  sim::CounterHandle c_crashes_;
  sim::CounterHandle c_watchdog_;
  sim::CounterHandle c_restarts_;
  sim::CounterHandle c_quarantines_;
};

}  // namespace minova::nova
