#include "fuzz/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "core/platform.hpp"
#include "hwmgr/manager.hpp"
#include "nova/kernel.hpp"
#include "util/fnv.hpp"
#include "workloads/chaos.hpp"

namespace minova::fuzz {

namespace {

/// Independent derivation stream keyed on (seed, lane). Used so that one
/// lane's draws (e.g. VM 3's parameters) never depend on whether another
/// lane was consulted — the property VM pruning needs.
class Derive {
 public:
  Derive(u64 seed, u64 lane) : s_(seed ^ (0x9E37'79B9'7F4A'7C15ull * (lane + 1))) {}
  u64 next() { return util::splitmix64(s_); }
  u64 below(u64 bound) { return next() % bound; }

 private:
  u64 s_;
};

// Derivation lanes (keep stable: changing a lane re-derives old seeds).
constexpr u64 kLaneGlobal = 0;
constexpr u64 kLaneFaults = 1;
constexpr u64 kLaneLifecycle = 2;  // create/destroy schedule draws
constexpr u64 kLaneVmBase = 16;    // VM i uses lane kLaneVmBase + i
constexpr u64 kLaneDynBase = 256;  // dynamic VM k uses kLaneDynBase + k

/// Ceiling on concurrently live dynamic VMs in lifecycle mode.
constexpr u32 kMaxDynamicVms = 4;

/// Simulated-time ceiling: a scenario whose guests go quiet ends here even
/// if `max_steps` events never accumulate.
constexpr double kMaxSimUs = 400'000.0;

/// Cadence of the scan-tier oracles: every N steps and once at the end.
constexpr u64 kHeavyInterval = 64;

/// A chaos VM's guest config and scheduling priority.
struct ChaosVm {
  workloads::ChaosConfig cfg;
  u32 priority = 0;
};

/// Draw one chaos VM from its own derivation lane. Static and dynamic VMs
/// differ only in `ivc` and `crash_fraction`. Those and the compute
/// fraction are constants, not draws, so arming them shifts no Derive
/// stream: the supervisor lane keeps the legacy streams, and the mt shards
/// compare digests across thread counts, not against compute-off runs.
ChaosVm derive_chaos_vm(const ScenarioOptions& opts, u64 lane, bool ivc,
                        double crash_fraction) {
  Derive d(opts.seed, lane);
  ChaosVm vm;
  workloads::ChaosConfig& cfg = vm.cfg;
  cfg.seed = d.next();
  cfg.mem_ops = opts.mem_ops;
  cfg.hwtask_ops = opts.hwtask;
  cfg.ivc_ops = ivc;
  cfg.sched_ops = opts.hw_sched;
  cfg.compute_fraction = opts.compute ? 0.4 : 0.0;
  cfg.crash_fraction = crash_fraction;
  cfg.max_ops_per_step = 2 + u32(d.below(4));
  cfg.vtimer_period_us = 400 + u32(d.below(2400));
  const u32 ntasks = 1 + u32(d.below(3));
  for (u32 t = 0; t < ntasks; ++t)
    cfg.tasks.push_back(hwtask::TaskId(1 + d.below(9)));
  vm.priority = 1 + u32(d.below(5));
  return vm;
}

/// Fold one chaos guest's stats into an accumulator (used for both
/// lifecycle-destroyed dynamic VMs and supervisor-reaped incarnations, so
/// dead guests' work stays part of the replay contract).
void fold_chaos(workloads::ChaosStats& acc, const workloads::ChaosStats& s) {
  acc.ops += s.ops;
  acc.hypercalls += s.hypercalls;
  acc.ok += s.ok;
  acc.rejected += s.rejected;
  acc.faults += s.faults;
  acc.virqs += s.virqs;
  acc.maps += s.maps;
  acc.hw_grants += s.hw_grants;
  acc.hw_releases += s.hw_releases;
  acc.jobs_started += s.jobs_started;
  acc.ivc_sends += s.ivc_sends;
  acc.ivc_recvs += s.ivc_recvs;
  acc.hw_queued += s.hw_queued;
  acc.hw_regrants += s.hw_regrants;
  acc.hw_setprios += s.hw_setprios;
  acc.hw_quota_polls += s.hw_quota_polls;
  acc.crash_wild_jumps += s.crash_wild_jumps;
  acc.crash_undefs += s.crash_undefs;
  acc.crash_wild_stores += s.crash_wild_stores;
  acc.spin_bursts += s.spin_bursts;
  acc.health_polls += s.health_polls;
}

/// Mix one chaos guest's (or accumulator's) traffic counters into the
/// clean-run digest; the PRR-scheduler ones only under `hw_sched`, so
/// legacy digests keep their values.
void mix_chaos(util::Fnv1a& dg, const workloads::ChaosStats& s,
               bool hw_sched) {
  dg.mix(s.ops);
  dg.mix(s.hypercalls);
  dg.mix(s.ok);
  dg.mix(s.rejected);
  dg.mix(s.faults);
  dg.mix(s.virqs);
  dg.mix(s.maps);
  dg.mix(s.hw_grants);
  dg.mix(s.hw_releases);
  dg.mix(s.jobs_started);
  dg.mix(s.ivc_sends);
  dg.mix(s.ivc_recvs);
  if (hw_sched) {
    dg.mix(s.hw_queued);
    dg.mix(s.hw_regrants);
    dg.mix(s.hw_setprios);
    dg.mix(s.hw_quota_polls);
  }
}

/// The mutant that trips a sabotage target, as the kind number one
/// component's `sabotage_for_test` hook takes (each hook numbers its
/// mutants from 1 in oracle order). All zero selects the runner's own
/// quantum-bound mutant.
struct Mutant {
  u32 smp = 0, hw = 0, sv = 0;
};

Mutant mutant_for(Oracle target) {
  switch (target) {
    case Oracle::kCorePartition: return {.smp = 1};
    case Oracle::kShootdownComplete: return {.smp = 2};
    case Oracle::kCoreExclusivity: return {.smp = 3};
    case Oracle::kHwLaunchLedger: return {.hw = 1};
    case Oracle::kHwSaveRestore: return {.hw = 2};
    case Oracle::kHwQuota: return {.hw = 3};
    case Oracle::kHwCacheValid: return {.hw = 4};
    case Oracle::kSvContainment: return {.sv = 1};
    case Oracle::kSvRestartLedger: return {.sv = 2};
    case Oracle::kSvQuarantine: return {.sv = 3};
    default: return {};
  }
}

std::string fmt_trace_tail(Platform& platform, std::size_t max_events) {
  const auto events = platform.trace().snapshot();
  const std::size_t n = std::min(events.size(), max_events);
  std::string out;
  char line[128];
  for (std::size_t i = events.size() - n; i < events.size(); ++i) {
    const auto& e = events[i];
    std::snprintf(line, sizeof line, "  %10.2fus  %-12s a=%u b=%u\n",
                  platform.clock().cycles_to_us(e.when),
                  sim::trace_kind_name(e.kind), e.a, e.b);
    out += line;
  }
  return out;
}

}  // namespace

ScenarioOptions normalized(const ScenarioOptions& opts) {
  ScenarioOptions o = opts;
  if (o.num_vms == 0) {
    Derive d(o.seed, kLaneGlobal);
    o.num_vms = 2 + u32(d.below(7));  // 2..8
  }
  o.num_vms = std::min<u32>(o.num_vms, 8);
  if ((o.active_mask & ((1u << o.num_vms) - 1)) == 0) o.active_mask = 1;
  return o;
}

std::string describe(const ScenarioOptions& opts) {
  const Mutant m = mutant_for(opts.sabotage_oracle);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "seed=%llu steps=%llu vms=%u mask=0x%02x faults=%d hwtask=%d "
                "ivc=%d mem=%d lc=%d cores=%u threads=%u compute=%d sched=%d "
                "sv=%d sabotage=%llu smpk=%u hwk=%u svk=%u",
                (unsigned long long)opts.seed,
                (unsigned long long)opts.max_steps, opts.num_vms,
                opts.active_mask, opts.faults ? 1 : 0, opts.hwtask ? 1 : 0,
                opts.ivc ? 1 : 0, opts.mem_ops ? 1 : 0, opts.lifecycle ? 1 : 0,
                opts.num_cores, opts.host_threads, opts.compute ? 1 : 0,
                opts.hw_sched ? 1 : 0, opts.supervisor ? 1 : 0,
                (unsigned long long)opts.sabotage_step, m.smp, m.hw, m.sv);
  return buf;
}

FuzzResult run_scenario(const ScenarioOptions& in) {
  const ScenarioOptions opts = normalized(in);

  // ---- platform: fault-injection schedule derived from the seed ----
  PlatformConfig pcfg;
  if (opts.faults) {
    Derive d(opts.seed, kLaneFaults);
    pcfg.fault.enabled = true;
    pcfg.fault.seed = opts.seed ^ 0xFA17'0000ull;
    for (u32 s = 0; s < sim::kNumFaultSites; ++s)
      pcfg.fault.sites[s].probability = double(d.below(16)) / 100.0;  // 0..15%
    pcfg.fault.stall_cycles = 50'000 + d.below(4) * 50'000;
  }
  Platform platform(pcfg);
  platform.trace().set_enabled(true);

  // ---- kernel: randomized quantum so switch interleavings vary ----
  nova::KernelConfig kcfg;
  {
    Derive d(opts.seed, kLaneGlobal);
    (void)d.next();  // consumed by normalized() for num_vms
    kcfg.quantum_ms = 0.5 + double(d.below(101)) * 0.05;  // 0.5 .. 5.5 ms
  }
  // Lifecycle churn runs the kernel in lazy-boot mode: dynamic VMs
  // materialize their address space and vGIC table on first touch.
  kcfg.lazy_vm_boot = opts.lifecycle;
  // SMP shards: round-robin VM placement, work stealing, IPIs, cross-core
  // shootdown. num_cores == 1 is bit-identical to the pre-SMP kernel.
  kcfg.num_cores = opts.num_cores == 0 ? 1 : opts.num_cores;
  kcfg.host_threads = opts.host_threads == 0 ? 1 : opts.host_threads;
  if (opts.supervisor) {
    // Supervisor shards: a watchdog tight enough that a spin burst trips it
    // within a slice or two, and a crash-loop policy small enough that a
    // persistently crashing guest reaches quarantine inside kMaxSimUs.
    kcfg.supervisor.enabled = true;
    kcfg.supervisor.watchdog_us = 15'000.0;
    kcfg.supervisor.max_restarts = 2;
    kcfg.supervisor.restart_window_us = 120'000.0;
    kcfg.supervisor.backoff_base_us = 800.0;
  }
  nova::Kernel kernel(platform, kcfg);

  hwmgr::ManagerService manager(kernel);
  manager.install(/*priority=*/6);  // above every guest (levels 1..5)
  if (opts.hw_sched) {
    // PRR-scheduler shards: small cache and tight quotas so preemption,
    // queueing, eviction and quota rejection all trigger within a few
    // thousand steps instead of needing pathological seeds.
    hwmgr::SchedConfig sc;
    sc.priorities = true;
    sc.cache_capacity = 2;
    sc.prefetch = true;
    sc.default_quota = 2;
    sc.queue_depth = 8;
    manager.set_sched_config(sc);
  }

  // ---- chaos VMs (parameters per (seed, vm index), active set aside) ----
  std::vector<nova::ProtectionDomain*> pds;
  std::vector<workloads::ChaosGuest*> guests;
  std::vector<workloads::ChaosConfig> cfgs;  // restart factories re-use these
  for (u32 i = 0; i < opts.num_vms; ++i) {
    if (((opts.active_mask >> i) & 1) == 0) continue;
    ChaosVm vm = derive_chaos_vm(opts, kLaneVmBase + i, opts.ivc,
                                 opts.supervisor ? 0.01 : 0.0);
    auto guest = std::make_unique<workloads::ChaosGuest>(vm.cfg);
    workloads::ChaosGuest* raw = guest.get();
    auto& pd = kernel.create_vm("chaos" + std::to_string(i), vm.priority,
                                std::move(guest));
    pds.push_back(&pd);
    guests.push_back(raw);
    cfgs.push_back(std::move(vm.cfg));
  }

  // ---- IVC ring over the instantiated VMs ----
  std::vector<std::vector<u32>> vm_channels(pds.size());
  if (opts.ivc && pds.size() >= 2) {
    const u32 nch = pds.size() == 2 ? 1 : u32(pds.size());
    for (u32 k = 0; k < nch; ++k) {
      auto& ch = kernel.create_channel(*pds[k], *pds[(k + 1) % pds.size()]);
      guests[k]->add_ivc_channel(ch.id());
      guests[(k + 1) % pds.size()]->add_ivc_channel(ch.id());
      vm_channels[k].push_back(ch.id());
      vm_channels[(k + 1) % pds.size()].push_back(ch.id());
    }
  }

  // ---- supervisor lane: watch the static VMs (DESIGN.md §16) ----
  // Dead incarnations' stats accumulate here (harvested by the observer at
  // teardown, while the guest object is still alive).
  workloads::ChaosStats sv_acc{};
  if (opts.supervisor) {
    nova::Supervisor* sup = kernel.supervisor();
    sup->set_observer([&](u32 slot, nova::VmHealth h, nova::PdId,
                          nova::GuestOs* g) {
      if (slot >= guests.size()) return;
      if (h == nova::VmHealth::kCrashed || h == nova::VmHealth::kQuarantined) {
        if (g != nullptr)
          fold_chaos(sv_acc, static_cast<workloads::ChaosGuest*>(g)->stats());
        guests[slot] = nullptr;  // about to be torn down
      } else {
        guests[slot] = static_cast<workloads::ChaosGuest*>(g);  // restarted
      }
    });
    for (std::size_t s = 0; s < pds.size(); ++s) {
      // watch() records the VM's channel memberships, so it must run after
      // the IVC wiring above; slot index == guests index by construction.
      sup->watch(*pds[s],
                 [&, s](u32 inc) -> std::unique_ptr<nova::GuestOs> {
                   workloads::ChaosConfig c = cfgs[s];
                   c.ivc_channels = vm_channels[s];
                   // Independent stream per incarnation: a replacement must
                   // not replay the crashed instance's exact op sequence.
                   c.seed = cfgs[s].seed ^ (0x5EED'0000ull + inc);
                   return std::make_unique<workloads::ChaosGuest>(c);
                 });
    }
  }

  // ---- invariant hook ----
  nova::KernelInspector insp(kernel);
  InvariantSuite suite(insp, &manager);

  FuzzResult res;
  res.seed = opts.seed;
  bool done = false;
  u64 step = 0;

  auto record_failure = [&](std::vector<Violation> v) {
    res.failed = true;
    res.step = step;
    res.violations = std::move(v);
    // Failure digest: captured *at the violating step*, before any further
    // simulation — this is the value replays must reproduce bit-identically.
    util::Fnv1a dg;
    dg.mix(opts.seed);
    dg.mix(step);
    dg.mix(platform.clock().now());
    dg.mix(insp.vm_switches());
    dg.mix(insp.hypercalls());
    for (const auto& v2 : res.violations) {
      dg.mix(u64(v2.oracle));
      dg.mix(v2.detail);
    }
    res.digest = dg.h;
    done = true;
  };

  kernel.set_introspection_hook([&](nova::KernelEvent, nova::TrapKind) {
    if (done) return;
    ++step;
    if (opts.sabotage_step != 0 && step == opts.sabotage_step) {
      const Mutant m = mutant_for(opts.sabotage_oracle);
      if (m.sv != 0 && kernel.supervisor() != nullptr)
        kernel.supervisor()->sabotage_for_test(m.sv);
      else if (m.hw != 0)
        manager.sabotage_for_test(m.hw);
      else if (m.smp != 0)
        kernel.smp_sabotage_for_test(m.smp);
      else if (!pds.empty())
        pds.front()->quantum_left =
            insp.scheduler().default_quantum() * 2 + 12345;
    }
    std::vector<Violation> v = suite.check_cheap();
    const bool last = step >= opts.max_steps;
    if (step % kHeavyInterval == 0 || last)
      for (auto& hv : suite.check_heavy()) v.push_back(std::move(hv));
    if (!v.empty()) {
      record_failure(std::move(v));
      return;
    }
    if (last) done = true;
  });

  // ---- lifecycle churn state (dynamic VMs, created/destroyed between
  // slices so no destroy ever lands mid-hypercall) ----
  struct DynVm {
    nova::PdId id = nova::kInvalidPd;
    workloads::ChaosGuest* guest = nullptr;
  };
  std::vector<DynVm> dynamic;
  Derive lifecycle_d(opts.seed, kLaneLifecycle);
  u64 dyn_created = 0, dyn_destroyed = 0;
  // Stats of destroyed dynamic guests, folded in before their PD (and the
  // attached guest) is deleted; live dynamic guests are added at the end.
  workloads::ChaosStats dyn_acc{};
  auto fold_stats = [&dyn_acc](const workloads::ChaosStats& s) {
    fold_chaos(dyn_acc, s);
  };
  auto churn = [&]() {
    const u64 roll = lifecycle_d.below(4);
    if (roll == 0 && dynamic.size() < kMaxDynamicVms) {
      // Dynamic VMs never join IVC channels and are not supervised.
      const ChaosVm vm = derive_chaos_vm(opts, kLaneDynBase + dyn_created,
                                         /*ivc=*/false, /*crash_fraction=*/0.0);
      auto guest = std::make_unique<workloads::ChaosGuest>(vm.cfg);
      workloads::ChaosGuest* raw = guest.get();
      auto& pd = kernel.create_vm("dyn" + std::to_string(dyn_created),
                                  vm.priority, std::move(guest));
      dynamic.push_back(DynVm{pd.id(), raw});
      ++dyn_created;
    } else if (roll == 1 && !dynamic.empty()) {
      const std::size_t victim = std::size_t(lifecycle_d.below(dynamic.size()));
      fold_stats(dynamic[victim].guest->stats());
      kernel.destroy_vm(dynamic[victim].id);
      dynamic.erase(dynamic.begin() + long(victim));
      ++dyn_destroyed;
    }
  };

  // Drive in fixed simulated-time slices; the hook flags completion. Slice
  // size only affects how much tail simulation runs after `done` — the
  // failure state itself is captured inside the hook.
  double t = 0;
  while (!done && t < kMaxSimUs) {
    if (opts.lifecycle) churn();
    kernel.run_for_us(100.0);
    t += 100.0;
  }
  kernel.set_introspection_hook({});

  res.steps = step;
  res.vm_switches = insp.vm_switches();
  res.hypercalls = insp.hypercalls();

  if (!res.failed) {
    // Clean-run digest over end-of-run counters: replaying the same options
    // must land on exactly this value.
    util::Fnv1a dg;
    dg.mix(opts.seed);
    dg.mix(step);
    dg.mix(res.vm_switches);
    dg.mix(res.hypercalls);
    dg.mix(platform.fault().injected());
    for (const auto* g : guests) {
      // A null slot is a supervisor-reaped VM awaiting restart (or
      // quarantined): its stats were folded into sv_acc at teardown.
      if (g == nullptr) continue;
      const auto& s = g->stats();
      mix_chaos(dg, s, opts.hw_sched);
      if (opts.supervisor) {
        dg.mix(s.crash_wild_jumps);
        dg.mix(s.crash_undefs);
        dg.mix(s.crash_wild_stores);
        dg.mix(s.spin_bursts);
        dg.mix(s.health_polls);
      }
    }
    if (opts.supervisor) {
      // Supervisor replay contract: dead incarnations' harvested totals,
      // the supervisor's own ledger, and each slot's terminal state pin
      // down the exact crash/restart/quarantine interleaving. Gated on
      // `supervisor` so every legacy digest keeps its value.
      dg.mix(sv_acc.ops);
      dg.mix(sv_acc.hypercalls);
      dg.mix(sv_acc.ok);
      dg.mix(sv_acc.rejected);
      dg.mix(sv_acc.faults);
      dg.mix(sv_acc.virqs);
      dg.mix(sv_acc.crash_wild_jumps);
      dg.mix(sv_acc.crash_undefs);
      dg.mix(sv_acc.crash_wild_stores);
      dg.mix(sv_acc.spin_bursts);
      dg.mix(sv_acc.health_polls);
      const nova::Supervisor* sup = insp.supervisor();
      const auto& st = sup->stats();
      dg.mix(st.crashes);
      dg.mix(st.watchdog_fires);
      dg.mix(st.restarts);
      dg.mix(st.quarantines);
      for (u32 s2 = 0; s2 < sup->slot_count(); ++s2) {
        const auto& r = sup->record(s2);
        dg.mix(r.incarnation);
        dg.mix(u64(r.health));
        dg.mix(r.fatal_faults);
        dg.mix(r.watchdog_fires);
      }
    }
    if (opts.lifecycle) {
      // Fold still-live dynamic guests, then mix the accumulated totals so
      // destroyed VMs' work stays part of the replay contract.
      for (const auto& dv : dynamic) fold_stats(dv.guest->stats());
      dg.mix(dyn_created);
      dg.mix(dyn_destroyed);
      dg.mix(insp.vms_destroyed());
      dg.mix(insp.asid_generation());
      mix_chaos(dg, dyn_acc, opts.hw_sched);
    }
    if (opts.hw_sched) {
      // Scheduler replay contract: the manager-side counters pin down the
      // exact preemption/queue/cache interleaving, not just what the guests
      // observed. Gated on hw_sched so legacy digests keep their values.
      const auto& ms = manager.stats();
      dg.mix(ms.preemptions);
      dg.mix(ms.resumes);
      dg.mix(ms.enqueued);
      dg.mix(ms.wait_grants);
      dg.mix(ms.quota_rejections);
      dg.mix(ms.cache_hits);
      dg.mix(ms.cache_misses);
      dg.mix(ms.cache_evictions);
      dg.mix(ms.cache_prefetches);
    }
    if (insp.num_cores() > 1) {
      // SMP replay contract: per-core scheduling and coherence counters are
      // part of the digest, so a replay must reproduce the identical
      // interleaving, not just the same guest-visible totals. Gated on
      // cores > 1 so every pre-SMP unicore digest keeps its value.
      dg.mix(insp.num_cores());
      dg.mix(insp.tlb_epoch());
      dg.mix(insp.shootdowns_sent());
      for (u32 c = 0; c < insp.num_cores(); ++c) {
        const auto cv = insp.core(c);
        dg.mix(cv.ipis_sent());
        dg.mix(cv.ipis_received());
        dg.mix(cv.shootdowns_acked());
        dg.mix(cv.steals());
        dg.mix(u64{0});  // an always-0 slot, kept so pinned digests hold
        dg.mix(cv.irq_traps());
        dg.mix(cv.vm_switches());
      }
    }
    res.digest = dg.h;
  }

  // ---- report ----
  char head[256];
  std::snprintf(head, sizeof head,
                "[%s] %s\n  steps=%llu vm_switches=%llu hypercalls=%llu "
                "faults_injected=%llu digest=%016llx\n",
                res.failed ? "FAIL" : "ok", describe(opts).c_str(),
                (unsigned long long)res.steps,
                (unsigned long long)res.vm_switches,
                (unsigned long long)res.hypercalls,
                (unsigned long long)platform.fault().injected(),
                (unsigned long long)res.digest);
  res.report = head;
  if (res.failed) {
    res.report += "  first violation at step " + std::to_string(res.step) +
                  ":\n";
    for (const auto& v : res.violations)
      res.report +=
          std::string("    [") + oracle_name(v.oracle) + "] " + v.detail + "\n";
    res.report += "  trace tail:\n" + fmt_trace_tail(platform, 30);
  }
  return res;
}

}  // namespace minova::fuzz
