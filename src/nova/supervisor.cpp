#include "nova/supervisor.hpp"

#include "nova/kernel.hpp"
#include "util/assert.hpp"

namespace minova::nova {

const char* vm_health_name(VmHealth h) {
  switch (h) {
    case VmHealth::kHealthy: return "healthy";
    case VmHealth::kDegraded: return "degraded";
    case VmHealth::kCrashed: return "crashed";
    case VmHealth::kQuarantined: return "quarantined";
  }
  return "?";
}

Supervisor::Supervisor(Kernel& kernel, const SupervisorConfig& cfg)
    : kernel_(kernel),
      watchdog_cycles_(cfg.watchdog_us > 0
                           ? kernel.platform_.clock().us_to_cycles(
                                 cfg.watchdog_us)
                           : 0),
      max_restarts_(cfg.max_restarts),
      restart_window_cycles_(
          kernel.platform_.clock().us_to_cycles(cfg.restart_window_us)),
      backoff_base_cycles_(
          kernel.platform_.clock().us_to_cycles(cfg.backoff_base_us)),
      c_crashes_(kernel.platform_.stats().handle("kernel.supervisor.crashes")),
      c_watchdog_(
          kernel.platform_.stats().handle("kernel.supervisor.watchdog_fires")),
      c_restarts_(
          kernel.platform_.stats().handle("kernel.supervisor.restarts")),
      c_quarantines_(
          kernel.platform_.stats().handle("kernel.supervisor.quarantines")) {}

u32 Supervisor::watch(ProtectionDomain& pd, GuestFactory factory) {
  VmRecord r;
  r.pd = pd.id();
  r.live = true;
  r.name = pd.name();
  r.priority = pd.priority();
  r.factory = std::move(factory);
  r.window_start = kernel_.platform_.clock().now();
  // Channel memberships at watch time are the set a restart re-binds; the
  // dead endpoint keeps the old PdId until rebind() swaps the new one in.
  for (const auto& ch : kernel_.channels_)
    if (ch->connects(pd.id())) r.channels.push_back(ch->id());
  records_.push_back(std::move(r));
  return u32(records_.size() - 1);
}

Supervisor::VmRecord* Supervisor::find(PdId pd) {
  if (pd == kInvalidPd) return nullptr;
  for (auto& r : records_)
    if (r.live && r.pd == pd) return &r;
  return nullptr;
}

const Supervisor::VmRecord* Supervisor::record_for(PdId pd) const {
  return const_cast<Supervisor*>(this)->find(pd);
}

void Supervisor::pet(PdId pd) {
  if (VmRecord* r = find(pd)) r->cpu_since_pet = 0;
}

void Supervisor::condemn(VmRecord& r) {
  if (r.condemned) return;
  r.condemned = true;
  ++condemned_count_;
}

void Supervisor::on_guest_ran(PdId pd, cycles_t used) {
  VmRecord* r = find(pd);
  if (r == nullptr || r->condemned || watchdog_cycles_ == 0) return;
  // CPU-accumulation watchdog: only cycles this VM actually burned count
  // toward the budget, so a starved-but-healthy VM under heavy contention
  // never trips it — a wall-clock deadline would.
  r->cpu_since_pet += used;
  if (r->cpu_since_pet > watchdog_cycles_) {
    ++r->watchdog_fires;
    c_watchdog_.inc();
    condemn(*r);
  }
}

void Supervisor::on_forwarded_fault(PdId pd) {
  VmRecord* r = find(pd);
  if (r == nullptr) return;
  ++r->forwarded_faults;
  if (r->health == VmHealth::kHealthy &&
      r->forwarded_faults >= kDegradeFaults)
    r->health = VmHealth::kDegraded;
}

bool Supervisor::on_fatal(PdId pd, FatalKind kind) {
  (void)kind;
  VmRecord* r = find(pd);
  if (r == nullptr) return false;
  ++r->fatal_faults;
  if (!r->condemned) {
    c_crashes_.inc();
    condemn(*r);
  }
  return true;
}

bool Supervisor::condemned(PdId pd) const {
  if (condemned_count_ == 0) return false;
  const VmRecord* r = record_for(pd);
  return r != nullptr && r->condemned;
}

void Supervisor::reap(ProtectionDomain& pd) {
  VmRecord* r = find(pd.id());
  MINOVA_CHECK_MSG(r != nullptr && r->condemned,
                   "supervisor reap of an uncondemned PD");
  const u32 slot = u32(r - records_.data());
  const cycles_t now = kernel_.platform_.clock().now();

  // Roll the crash-loop window before deciding the slot's fate.
  if (restart_window_cycles_ > 0 &&
      now - r->window_start > restart_window_cycles_) {
    r->restarts_in_window = 0;
    r->window_start = now;
  }
  const bool quarantine = r->restarts_in_window >= max_restarts_;

  // Observer fires before teardown: the guest object is still alive so the
  // caller can harvest its stats (the scenario runner's digest needs them).
  if (observer_)
    observer_(slot, quarantine ? VmHealth::kQuarantined : VmHealth::kCrashed,
              r->pd, pd.guest());

  // Orderly teardown: destroy_vm strips IRQ/PCAP/VFP ownership, notifies
  // the hardware-task service (PRR reclaim in any pipeline stage via the
  // §IV.C record), flushes the ASID footprint, marks IVC peers and recycles
  // every kernel object.
  kernel_.destroy_vm(r->pd);

  r->prev_pd = r->pd;
  r->pd = kInvalidPd;
  r->live = false;
  r->condemned = false;
  --condemned_count_;
  r->cpu_since_pet = 0;
  if (quarantine) {
    r->health = VmHealth::kQuarantined;
    c_quarantines_.inc();
  } else {
    r->health = VmHealth::kCrashed;
    r->restart_at = now + (backoff_base_cycles_ << r->restarts_in_window);
    ++r->restarts_in_window;
    ++crashed_count_;
  }
  // One kernel service-call trap: the supervisor's teardown work is real
  // kernel execution, and the trap's introspection event gives the oracles
  // a defined point to observe the post-teardown state.
  kernel_.charge_service_call();
}

void Supervisor::poll() {
  if (crashed_count_ == 0) return;
  const cycles_t now = kernel_.platform_.clock().now();
  for (auto& r : records_) {
    if (r.live || r.health != VmHealth::kCrashed || now < r.restart_at)
      continue;
    // Restart: a fresh guest incarnation in a fresh PD, re-attached to the
    // slot's IVC channels (the dead endpoint is re-bound to the new id and
    // the hangup virq re-registered on the new vGIC before first boot).
    ++r.incarnation;
    auto guest = r.factory(r.incarnation);
    MINOVA_CHECK_MSG(guest != nullptr, "supervisor factory returned no guest");
    GuestOs* raw = guest.get();
    ProtectionDomain& pd =
        kernel_.create_vm(r.name, r.priority, std::move(guest));
    for (u32 ch_id : r.channels) {
      for (auto& ch : kernel_.channels_) {
        if (ch->id() != ch_id) continue;
        ch->rebind(r.prev_pd, pd.id());
        pd.vgic().register_irq(ch->virq());
        break;
      }
    }
    r.pd = pd.id();
    r.prev_pd = kInvalidPd;
    r.live = true;
    r.health = VmHealth::kHealthy;
    r.cpu_since_pet = 0;
    r.forwarded_faults = 0;
    r.restart_at = 0;
    c_restarts_.inc();
    --crashed_count_;
    if (observer_) observer_(u32(&r - records_.data()), r.health, r.pd, raw);
  }
}

void Supervisor::sabotage_for_test(u32 kind) {
  switch (kind) {
    case 1:  // sv-containment: a live record names a PD the kernel lacks
      for (auto& r : records_)
        if (r.live) {
          r.pd = PdId(0xDEAD);
          return;
        }
      break;
    case 2:  // sv-restart-ledger: forge the restart accounting
      c_restarts_.inc(3);
      break;
    case 3:  // sv-quarantine: a quarantined record that is still live
      for (auto& r : records_)
        if (r.live) {
          r.health = VmHealth::kQuarantined;
          return;
        }
      break;
    default:
      break;
  }
}

}  // namespace minova::nova
