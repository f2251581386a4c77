// The kernel's execution engine: the scheduling run loop, physical IRQ
// take/route/inject (§III.B, Fig. 6), the kernel tick, the VM switch
// (§III.C) and the SMP machinery (DESIGN.md §13): per-core slices over one
// time-multiplexed simulated CPU, IPIs, work stealing and cross-core TLB
// shootdown. Trap entries here go through TrapGuard like every other kernel
// entry, so the IRQ and IPI paths share the hypercall gate's accounting.
#include <algorithm>

#include "nova/kernel.hpp"
#include "nova/trap.hpp"
#include "util/assert.hpp"

namespace minova::nova {

namespace {
constexpr u32 kIpiSendCycles = 24;      // ICDSGIR write + DSB on the sender
constexpr u32 kIpiLatencyCycles = 180;  // distributor -> target CPU interface
constexpr u32 kStealCycles = 90;        // remote run-queue lock + transfer
}  // namespace

// N simulated cores, each owning a private hardware lane, advance in
// serial *rounds* (DESIGN.md §14): every core below the deadline gets one
// slice per round, ascending id, bounded by a conservative window. The
// slice prologue (devices, IPIs, IRQs, scheduling, VM switch) always runs
// serially on the global clock, rewound to the core's local time. A slice
// whose dispatched guest step is pure computation *defers* the step into
// the round's batch instead of running it inline; after the round's
// prologues the batch executes — each item against its core's private lane
// under a private lane clock, possibly on host worker threads — and a
// serial commit (batch order == core order) applies the scheduling
// epilogues. Causality skew between cores stays bounded by the window;
// cross-core effects (IPIs, shootdowns) carry explicit arrival times and
// are only acted on once the receiving core's clock passes them. Every
// simulated number is independent of the host thread count: prologues and
// commits are serial and ordered, batch items touch disjoint lanes and
// guest memory, and the global clock is frozen while the batch runs. With
// one core the engine degenerates to `while (now < deadline)
// slice(deadline)` — the original unicore run loop, charge for charge.
void Kernel::run_until(cycles_t deadline) {
  auto& clock = platform_.clock();
  if (cores_.size() == 1) {
    while (clock.now() < deadline) smp_slice(cores_[0], deadline);
    return;
  }

  // Creation-time and between-run charges accrued on the global clock are
  // "before" this window: no core may start behind them.
  const cycles_t entry = clock.now();
  for (auto& cc : cores_) cc.local_now = std::max(cc.local_now, entry);
  const cycles_t window =
      std::max<cycles_t>(1, clock.us_to_cycles(cfg_.smp_window_us));

  for (bool progressed = true; progressed;) {
    progressed = false;
    batch_.clear();
    for (auto& cc : cores_) {
      if (cc.local_now >= deadline) continue;
      progressed = true;
      switch_active_core(cc.id);
      clock.set_time(cc.local_now);
      const cycles_t limit = std::min(deadline, cc.local_now + window);
      if (smp_slice(cc, limit, /*allow_defer=*/true)) continue;
      // A deferred slice's local clock advances at batch commit instead.
      cc.local_now = std::max(cc.local_now + 1, clock.now());
    }
    if (batch_.empty()) continue;
    // Batch phase: the global clock is frozen; each item charges its own
    // lane clock. The asserts in the hypercall/fault/VFP paths enforce the
    // compute contract while this flag is up.
    in_parallel_batch_ = true;
    if (pool_ != nullptr && batch_.size() > 1) {
      pool_->run(batch_.size(),
                 [this](std::size_t i) { exec_batch_item(batch_[i]); });
    } else {
      for (auto& s : batch_) exec_batch_item(s);
    }
    in_parallel_batch_ = false;
    // Serial commit, batch (== ascending core) order: deterministic at any
    // host thread count. The lane clock's end time stands in for the
    // global clock reading of the inline path.
    for (const auto& s : batch_) {
      CoreContext& cc = cores_[s.core_id];
      step_epilogue(cc, s.pd, s.end - s.start, s.exit);
      cc.local_now = std::max(cc.local_now + 1, s.end);
    }
  }

  // Leave the clock at the frontier so callers see a monotone timeline.
  cycles_t frontier = deadline;
  for (const auto& cc : cores_) frontier = std::max(frontier, cc.local_now);
  clock.set_time(frontier);
}

// One scheduling slice of core `cc`: pump devices, drain arrived IPIs,
// take pending physical IRQs targeted at this core, then dispatch (or
// steal, or idle). This body *is* the old unicore run-loop iteration; the
// SMP-only steps sit behind `cores_.size() > 1` guards or are naturally
// empty on one core, so the unicore charge sequence is untouched.
bool Kernel::smp_slice(CoreContext& cc, cycles_t limit, bool allow_defer) {
  auto& clock = platform_.clock();
  platform_.pump();
  drain_ipis(cc);
  handle_pending_irqs();
  // Crash-loop recovery: restart any crashed slot whose backoff deadline
  // has passed. Null unless KernelConfig::supervisor is enabled.
  if (sup_ != nullptr) sup_->poll();

  // Wake parked PDs that now have deliverable virtual interrupts. Gated
  // on the parked count so a dense population of runnable VMs never pays
  // the sweep; destroyed PDs leave null slots behind. Any core performs
  // the sweep (the vGIC state is shared kernel memory); a PD homed on
  // another core gets a reschedule IPI so an idle owner wakes up for it.
  if (parked_count_ != 0) {
    for (auto& p : pds_)
      if (p != nullptr && p->parked && p->vgic().any_deliverable()) {
        set_parked(*p, false);
        if (p->run_core != active_core_)
          send_ipi(p->run_core, IpiKind::kIpiReschedule, p->id(), 0);
      }
  }

  ProtectionDomain* pd = cc.sched.pick_eligible(
      [](const ProtectionDomain* p) { return !p->parked; });
  if (pd == nullptr && cores_.size() > 1) pd = try_steal(cc);
  if (pd == nullptr) {
    idle(limit);
    return false;
  }
  if (cores_.size() > 1 && clock.now() >= limit) return false;
  if (pd != cc.current) vm_switch(pd);

  GuestContext ctx = make_ctx(*pd);
  if (!pd->booted) {
    pd->guest()->boot(ctx);
    pd->booted = true;
  }
  deliver_virqs(*pd);

  cycles_t budget = limit - clock.now();
  budget = std::min(budget, pd->quantum_left);
  cycles_t ev = 0;
  if (platform_.events().next_deadline(ev) && ev > clock.now())
    budget = std::min(budget, ev - clock.now());
  if (budget == 0) {
    cc.sched.rotate(pd);
    return false;
  }

  // A pure-compute step needs nothing but its lane and its own guest
  // memory (GuestOs contract): defer it into the round's batch. The
  // budget is already capped at the next event deadline, so no device
  // event can fall inside the step; a lazily-booted VM (no space yet)
  // would fault on first touch and must take the serial path.
  if (allow_defer && pd->has_space() && pd->guest()->next_step_is_compute()) {
    batch_.push_back({cc.id, pd, clock.now(), 0, budget, StepExit::kBudget});
    return true;
  }

  const cycles_t t0 = clock.now();
  const StepExit exit = pd->guest()->step(ctx, budget);
  step_epilogue(cc, pd, clock.now() - t0, exit);
  return false;
}

void Kernel::step_epilogue(CoreContext& cc, ProtectionDomain* pd,
                           cycles_t used, StepExit exit) {
  pd->quantum_left -= std::min(used, pd->quantum_left);
  if (sup_ != nullptr) {
    // Watchdog accounting: a yield is progress (the guest chose to wait);
    // anything else charges the step's burn against the liveness budget.
    // Detectors may condemn the VM here (or already have, inside an inline
    // step via guest_fatal) — the reap must happen now, after the step
    // returned and before the scheduler touches the dying PD again. It
    // runs the full destroy_vm teardown (dequeue, current pointer with the
    // MMU fallback, ownership strip, recycling).
    if (exit == StepExit::kYield)
      sup_->pet(pd->id());
    else
      sup_->on_guest_ran(pd->id(), used);
    if (sup_->condemned(pd->id())) {
      sup_->reap(*pd);
      return;
    }
  }
  if (exit == StepExit::kHalt) {
    cc.sched.remove(pd);
    if (cc.current == pd) cc.current = nullptr;
  } else if (pd->quantum_left == 0) {
    cc.sched.rotate(pd);
  } else if (exit == StepExit::kYield) {
    // Nothing to do until an event: park so lower-priority PDs (or the
    // idle loop) get the CPU. A deliverable vIRQ unparks it above.
    set_parked(*pd, true);
  }
}

// Batch phase (DESIGN.md §14): run one deferred compute step on its core's
// private lane under that lane's private clock. May execute on a host
// worker thread — everything it touches (the lane, its clock's cache line,
// the PD's guest pages, the guest object, its BatchStep slot) belongs to
// this core alone, and the global clock is frozen for the duration.
void Kernel::exec_batch_item(BatchStep& s) {
  cpu::Core& lane = platform_.lane(s.core_id);
  sim::Clock& lclk = lane_clocks_[s.core_id].clock;
  lclk.set_time(s.start);
  lane.set_clock(&lclk);
  GuestContext ctx(*this, *s.pd, lane);
  s.exit = s.pd->guest()->step(ctx, s.budget);
  s.end = lclk.now();
  lane.set_clock(&platform_.clock());
}

void Kernel::idle(cycles_t limit) { platform_.idle_until_next_event(limit); }

// ---- SMP machinery ----------------------------------------------------------

// The simulator stops modeling core `active_core_` and starts modeling
// `target`. Every simulated core permanently owns a private lane (its
// register file, CPSR, VFP bank, MMU, micro-TLB and caches live
// there), so nothing is swapped: this only repoints `platform_.cpu()`.
// Host-side only — no simulated cycles may be charged for the simulator's
// own bookkeeping.
void Kernel::switch_active_core(u32 target) {
  if (target == active_core_) return;
  active_core_ = target;
  platform_.set_active_lane(target);
}

void Kernel::send_ipi(u32 target, IpiKind kind, u32 arg, u64 epoch) {
  if (cores_.size() <= 1 || target == active_core_) return;
  auto& core = platform_.cpu();
  // ICDSGIR distributor write + synchronization barrier on the sender.
  core.spend(core.caches().access_device());
  core.spend(kIpiSendCycles);
  const cycles_t arrival = platform_.clock().now() + kIpiLatencyCycles;
  cores_[target].ipis.push_back({kind, arg, epoch, arrival});
  ++cur_core().ipis_sent;
  c_ipi_sent_.inc();
  // Ride the event queue so an idle target's time jump stops at delivery
  // instead of sleeping through it.
  platform_.events().schedule_at(arrival, []() {});
}

void Kernel::tlb_shootdown(vaddr_t va) {
  if (cores_.size() <= 1) return;
  ++tlb_epoch_;
  // The initiator's own micro-TLB drops immediately (local TLBIMVA already
  // happened; micro entries also die via the generation check).
  platform_.cpu().mmu().utlb_flush();
  cur_core().shootdown_ack_epoch = tlb_epoch_;
  for (auto& cc : cores_) {
    if (cc.id == active_core_) continue;
    // TLBIMVAIS semantics: the inner-shareable broadcast invalidates the
    // remote lanes' main TLBs in hardware, immediately and without
    // charging the remote core. The micro-TLB flush and the epoch
    // acknowledgment still wait for the IPI (the software handshake the
    // completion rule is built on), so the observable ack/generation
    // sequence is unchanged.
    auto& lm = platform_.lane(cc.id).mmu();
    if (va != 0)
      lm.tlb_flush_va(va);
    else
      lm.tlb_flush_all();
    send_ipi(cc.id, IpiKind::kIpiTlbShootdown, u32(va), tlb_epoch_);
    ++shootdowns_sent_;
  }
}

// Every IPI whose arrival time has passed is taken as one IRQ-class trap
// (SGIs traverse the same exception vector as peripheral IRQs) *before*
// the slice dispatches guest work — the shootdown ordering rule: no guest
// instruction runs on a core with an acknowledged-but-unprocessed
// invalidation outstanding.
void Kernel::drain_ipis(CoreContext& cc) {
  if (cc.ipis.empty()) return;
  auto& core = platform_.cpu();
  while (!cc.ipis.empty() &&
         cc.ipis.front().arrival <= platform_.clock().now()) {
    const Ipi ipi = cc.ipis.front();
    cc.ipis.pop_front();
    {
      TrapGuard trap(core, trap_counters_, cpu::Exception::kIrq, rg_vector_,
                     TrapKind::kIrq);
      trap.exec(rg_irq_entry_);
      core.spend(core.caches().access_device());  // IAR read (SGI id)
      core.spend(core.caches().access_device());  // EOI
      switch (ipi.kind) {
        case IpiKind::kIpiTlbShootdown:
          // This lane's main TLB was already invalidated by the
          // initiator's broadcast; only the micro-TLB flush + ack remain.
          core.mmu().utlb_flush();
          cc.shootdown_ack_epoch =
              std::max(cc.shootdown_ack_epoch, ipi.epoch);
          ++cc.shootdowns_acked;
          c_shootdown_acks_.inc();
          break;
        case IpiKind::kIpiReschedule:
          break;  // the pick below sees the new work
        case IpiKind::kIpiVmMigrate:
          ++cc.migrations_in;
          break;
      }
    }
    ++cc.ipis_received;
    ++cc.irq_traps;
    notify_introspection(KernelEvent::kTrapExit, TrapKind::kIrq);
  }
}

ProtectionDomain* Kernel::try_steal(CoreContext& thief) {
  for (u32 k = 1; k < u32(cores_.size()); ++k) {
    CoreContext& victim = cores_[(thief.id + k) % u32(cores_.size())];
    ProtectionDomain* pd = victim.sched.steal_candidate(
        [&victim](const ProtectionDomain* p) {
          return !p->parked && !p->core_pinned && p->guest() != nullptr &&
                 p != victim.current;
        });
    if (pd == nullptr) continue;
    // Remote run-queue lock + cache-line transfer of the queue nodes.
    platform_.cpu().spend(kStealCycles);
    victim.sched.take(pd);
    // Lazily-switched state the PD left in the victim lane's banks must be
    // written back before the PD can run elsewhere (a real kernel flushes
    // dirty FPU state on migration); the save is charged to the thief,
    // which performs it.
    write_back_lazy_state(*pd, victim.id);
    thief.sched.enqueue(pd);  // keeps the remaining quantum (§III.D)
    pd->run_core = thief.id;
    ++pd->migrations;
    ++thief.steals;
    c_steals_.inc();
    return pd;
  }
  return nullptr;
}

void Kernel::handle_pending_irqs() {
  auto& core = platform_.cpu();
  auto& gic = platform_.gic();
  // Only interrupts whose ICDIPTR target mask includes this core are taken
  // here. Every mask resets to CPU0, so the unicore kernel sees exactly
  // the acknowledge order it always did.
  const u8 cpu_mask = u8(1u << active_core_);
  int guard = 0;
  while (gic.irq_asserted_for(cpu_mask) && guard++ < 64) {
    bool spurious = false;
    {
      TrapGuard trap(core, trap_counters_, cpu::Exception::kIrq,
                     rg_vector_, TrapKind::kIrq);
      trap.exec(rg_irq_entry_);
      const u32 irq = gic.acknowledge_for(cpu_mask);
      core.spend(core.caches().access_device());  // IAR read
      if (irq == irq::kSpuriousIrq) {
        spurious = true;
      } else {
        // Mini-NOVA writes EOI before injecting the virtual IRQ (§III.B).
        gic.eoi(irq);
        core.spend(core.caches().access_device());
        platform_.trace().emit(platform_.clock().now(), sim::TraceKind::kIrq,
                               irq,
                               irq < mem::kNumIrqs && mem::is_pl_irq(irq)
                                   ? irq_owner_[irq]
                                   : 0xFFFF'FFFFu);
        route_irq(irq);
        if (mem::is_pl_irq(irq) && irq_owner_[irq] != kInvalidPd)
          pl_irq_route_cycles_[irq] = trap.elapsed();
      }
    }
    if (spurious) break;
    ++cur_core().irq_traps;
    notify_introspection(KernelEvent::kTrapExit, TrapKind::kIrq);
    platform_.pump();
  }
}

void Kernel::route_irq(u32 irq) {
  auto& core = platform_.cpu();
  if (irq == mem::kIrqPrivateTimer) {
    kernel_tick();
    return;
  }
  if (irq == mem::kIrqDevcfg) {
    platform_.trace().emit(platform_.clock().now(),
                           sim::TraceKind::kPcapDone, 0, pcap_owner_);
    if (ProtectionDomain* owner = pd_by_id(pcap_owner_))
      owner->vgic().set_pending_charged(core, mem::kIrqDevcfg);
    return;
  }
  if (mem::is_pl_irq(irq)) {
    // Distribution (Fig. 6): find the vGIC holding a registration for this
    // source by walking the VMs' record lists. Tables of descheduled VMs
    // are cold — the cache effect behind the PL IRQ entry row of Table III.
    ProtectionDomain* owner = nullptr;
    for (auto& pd : pds_) {
      if (pd == nullptr || pd->guest() == nullptr) continue;  // services/dead
      pd->vgic().charge_lookup(core);
      if (pd->id() == irq_owner_[irq]) {
        owner = pd.get();
        break;
      }
    }
    if (owner != nullptr) {
      owner->vgic().set_pending_charged(core, irq);
      if (owner->run_core != active_core_) {
        // Taken here, consumed there: the owner VM lives on another core
        // (stale ICDIPTR target after a steal/migration). Count it and
        // kick the owning core so it injects without waiting for its tick.
        c_cross_core_irq_.inc();
        send_ipi(owner->run_core, IpiKind::kIpiReschedule, owner->id(), 0);
      }
    }
    return;
  }
  // Unrouted interrupt: count it; the kernel simply drops it.
  c_unrouted_irq_.inc();
  (void)core;
}

void Kernel::kernel_tick() {
  auto& core = platform_.cpu();
  core.exec_code(rg_tick_);
  platform_.private_timer().clear_event_flag();
  core.spend(core.caches().access_device());  // timer status ack
  // Skip the PD sweep when no vtimer is armed: at density (thousands of
  // idle VMs) the per-tick walk would dominate host time.
  if (vtimers_enabled_ == 0) return;
  const cycles_t now = core.clock().now();
  for (auto& pd : pds_) {
    if (pd == nullptr) continue;
    VtimerState& vt = pd->vcpu().vtimer();
    if (!vt.enabled) continue;
    if (now >= vt.next_deadline) {
      pd->vgic().set_pending(kVtimerVirq);
      const cycles_t period = platform_.clock().us_to_cycles(vt.period_us);
      while (vt.next_deadline <= now) vt.next_deadline += period;
    }
  }
}

void Kernel::deliver_virqs(ProtectionDomain& pd) {
  if (pd.vgic().entry() == 0 || pd.guest() == nullptr) return;
  auto& core = platform_.cpu();
  GuestContext ctx = make_ctx(pd);
  u32 irq = 0;
  int guard = 0;
  while (guard++ < 32) {
    const cycles_t t_inject = core.clock().now();
    if (!pd.vgic().take_pending_charged(core, irq)) break;
    c_virq_injected_.inc();
    platform_.trace().emit(t_inject, sim::TraceKind::kVirqInject, irq,
                           pd.id());
    core.exec_code(rg_inject_);
    if (irq < mem::kNumIrqs && pl_irq_route_cycles_[irq] != 0) {
      hwmgr_lat_.pl_irq_entry_us.add(platform_.clock().cycles_to_us(
          pl_irq_route_cycles_[irq] + core.clock().now() - t_inject));
      pl_irq_route_cycles_[irq] = 0;
    }
    pd.guest()->on_virq(ctx, irq);
  }
}

void Kernel::vm_switch(ProtectionDomain* to) {
  MINOVA_CHECK(to != nullptr);
  ProtectionDomain*& cur = cur_core().current;
  if (to == cur) return;
  platform_.trace().emit(platform_.clock().now(), sim::TraceKind::kVmSwitch,
                         cur ? cur->id() : 0xFFFF'FFFFu, to->id());
  auto& core = platform_.cpu();
  const cycles_t sw_t0 = core.clock().now();
  core.exec_code(rg_vm_switch_);
  if (cur != nullptr) {
    cur->vcpu().save_active(core);
    // Switching this core must not mask a source that a sibling core's
    // current VM has registered and enabled — that VM is on-CPU and
    // entitled to its interrupts. Per-IRQ targeting keeps the source from
    // firing here, so leaving it enabled is safe.
    cur->vgic().mask_all_physical(core, [this](u32 irq) {
      return irq_live_on_sibling(irq, active_core_);
    });
    if (!cfg_.lazy_vfp) cur->vcpu().save_vfp(core);
    if (!cfg_.lazy_l2ctrl) cur->vcpu().save_l2ctrl(core);
  }
  // Lazy ASID revalidation: a VM holding a tag from a retired generation
  // gets a fresh one before its ASID is loaded (rollover already flushed).
  ensure_asid_current(*to);
  to->vcpu().restore_active(core);
  if (!cfg_.use_asid) {
    // Ablation: without ASIDs every switch flushes the whole TLB.
    core.mmu().tlb_flush_all();
    core.spend(40);
  }
  if (!cfg_.lazy_vfp) to->vcpu().restore_vfp(core);
  if (!cfg_.lazy_l2ctrl) to->vcpu().restore_l2ctrl(core);
  to->vgic().unmask_enabled_physical(core);
  cur = to;
  ++cur_core().vm_switches;
  vm_switch_cycles_ += core.clock().now() - sw_t0;
  notify_introspection(KernelEvent::kVmSwitch, TrapKind::kCount);
}

}  // namespace minova::nova
