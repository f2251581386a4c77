#include "workloads/chaos.hpp"

#include <algorithm>

#include "mem/address_map.hpp"
#include "nova/kernel.hpp"
#include "pl/prr_controller.hpp"

namespace minova::workloads {

using nova::GuestContext;
using nova::HcStatus;
using nova::Hypercall;
using nova::HypercallResult;
using nova::StepExit;

ChaosGuest::ChaosGuest(ChaosConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed) {}

HypercallResult ChaosGuest::hc(GuestContext& ctx, Hypercall n, u32 r0, u32 r1,
                               u32 r2, u32 r3) {
  const HypercallResult res = ctx.hypercall(n, r0, r1, r2, r3);
  ++stats_.hypercalls;
  if (res.ok())
    ++stats_.ok;
  else
    ++stats_.rejected;
  return res;
}

void ChaosGuest::boot(GuestContext& ctx) {
  hc(ctx, Hypercall::kIrqSetEntry, 0, 0x1000);
  hc(ctx, Hypercall::kVtimerConfig, 0, cfg_.vtimer_period_us);
  hc(ctx, Hypercall::kIrqEnable, nova::kVtimerVirq);
  // IVC interrupts are registered by channel creation but delivery needs
  // the guest-side enable.
  for (u32 ch : cfg_.ivc_channels)
    hc(ctx, Hypercall::kIrqEnable, nova::kIvcIrqBase + ch);
}

StepExit ChaosGuest::step(GuestContext& ctx, cycles_t budget) {
  if (next_compute_) {
    // This step was announced as pure computation (next_step_is_compute):
    // it may be running on a host worker thread against a private lane.
    compute_burst(ctx, budget);
    next_compute_ = rng_.next_bool(cfg_.compute_fraction);
    return StepExit::kBudget;
  }
  if (spin_steps_ > 0) {
    // Mid-spin: a hung guest burns its whole budget, makes no hypercalls,
    // never yields and ignores its vIRQs — exactly what the supervisor's
    // CPU-accumulation watchdog exists to catch.
    --spin_steps_;
    spin(ctx, budget);
    return StepExit::kBudget;
  }
  // Fault-seeking draw (short-circuited to zero RNG draws when disabled,
  // preserving every existing seed digest).
  if (cfg_.crash_fraction > 0 && rng_.next_bool(cfg_.crash_fraction)) {
    if (crash_act(ctx)) return StepExit::kHalt;  // contained: VM condemned
    if (spin_steps_ > 0) {
      --spin_steps_;
      spin(ctx, budget);
      return StepExit::kBudget;
    }
  }
  (void)budget;
  const u32 ops = 1 + u32(rng_.next_below(cfg_.max_ops_per_step));
  for (u32 i = 0; i < ops; ++i) {
    ++stats_.ops;
    ctx.spend_insns(100 + rng_.next_below(1500));
    const u64 dice = rng_.next_below(100);
    if (dice < 25) {
      op_memory(ctx);
    } else if (dice < 35) {
      op_cache(ctx);
    } else if (dice < 45) {
      op_irq(ctx);
    } else if (dice < 60) {
      op_reg_io(ctx);
    } else if (dice < 85) {
      op_hwtask(ctx);
    } else {
      op_ivc(ctx);
    }
  }
  // Mostly stay runnable; park occasionally so lower-priority VMs run and
  // the unpark-on-vIRQ path gets exercised.
  const bool park = rng_.next_below(100) < 6;
  // Short-circuit keeps the draw (and thus every existing seed's digest)
  // out of runs that never enable compute bursts.
  next_compute_ =
      cfg_.compute_fraction > 0 && rng_.next_bool(cfg_.compute_fraction);
  return park ? StepExit::kYield : StepExit::kBudget;
}

// Pure guest-local computation honoring the next_step_is_compute contract:
// own data-section memory and spend_insns only — no hypercalls, no faults
// taken (failed accesses are simply skipped), no VFP, no device touches.
void ChaosGuest::compute_burst(GuestContext& ctx, cycles_t budget) {
  const cycles_t t_end = ctx.core_now() + budget;
  while (ctx.core_now() < t_end) {
    const vaddr_t va =
        nova::kGuestHwDataVa + vaddr_t((burst_pos_ % 4096) * 4);
    if ((burst_pos_ & 1) != 0) {
      const auto r = ctx.read32(va);
      if (r.ok) burst_sum_ += r.value;
    } else {
      (void)ctx.write32(va, u32(burst_sum_ ^ burst_pos_));
    }
    burst_pos_ += 5;
    ctx.spend_insns(200);
  }
  ++stats_.ops;
}

bool ChaosGuest::crash_act(GuestContext& ctx) {
  switch (rng_.next_below(5)) {
    case 0:  // wild jump: instruction fetch from nowhere
      ++stats_.crash_wild_jumps;
      return ctx.raise_fatal(nova::FatalKind::kPrefetchAbort);
    case 1:  // deliberate undefined instruction
      ++stats_.crash_undefs;
      return ctx.raise_fatal(nova::FatalKind::kUndefinedInsn);
    case 2:  // wild store with no abort handler
      ++stats_.crash_wild_stores;
      return ctx.raise_fatal(nova::FatalKind::kDataAbort);
    case 3:  // no-yield spin burst (hundreds of full-budget steps)
      ++stats_.spin_bursts;
      spin_steps_ = 400;
      return false;
    default:  // self-observation: am I degraded yet?
      ++stats_.health_polls;
      hc(ctx, Hypercall::kRegRead, nova::kSvcHealthQuery,
         nova::kSvcHealthSelf);
      return false;
  }
}

void ChaosGuest::spin(GuestContext& ctx, cycles_t budget) {
  const cycles_t t_end = ctx.core_now() + budget;
  while (ctx.core_now() < t_end) ctx.spend_insns(500);
}

void ChaosGuest::op_memory(GuestContext& ctx) {
  if (!cfg_.mem_ops) {
    ctx.spend_insns(200);
    return;
  }
  const u32 page = u32(rng_.next_below(kScratchPages));
  const vaddr_t va = kScratchVa + page * mmu::kPageSize;
  switch (rng_.next_below(7)) {
    case 0: {  // map a page of our own slab into the scratch window
      const u32 offset =
          u32(rng_.next_below(nova::kVmPhysSize / mmu::kPageSize)) *
          mmu::kPageSize;
      if (hc(ctx, Hypercall::kMapInsert, 0xFFFF'FFFFu, va, offset).ok()) {
        mapped_ |= u64(1) << page;
        ++stats_.maps;
      }
      break;
    }
    case 1:  // unmap (kNotFound when the slot is empty — also a valid path)
      hc(ctx, Hypercall::kMapRemove, 0xFFFF'FFFFu, va);
      mapped_ &= ~(u64(1) << page);
      break;
    case 2:  // reprotect a page (later touches may fault: that's the point)
      hc(ctx, Hypercall::kMemProtect, 0, va, u32(rng_.next_below(3)));
      break;
    case 3:
      hc(ctx, Hypercall::kPtCreate, 0, va);
      break;
    case 4: {  // privilege flip (Table II DACR swap)
      in_kernel_ = !in_kernel_;
      hc(ctx, Hypercall::kSetGuestMode, in_kernel_ ? 1u : 0u);
      break;
    }
    default:
      touch_memory(ctx);
      break;
  }
}

void ChaosGuest::touch_memory(GuestContext& ctx) {
  // Touch a scratch page we mapped (or the data section) — reprotected or
  // reclaimed pages abort, and the forwarded fault path is charged.
  vaddr_t va;
  if (mapped_ != 0 && rng_.next_bool(0.7)) {
    u32 page = u32(rng_.next_below(kScratchPages));
    while (((mapped_ >> page) & 1) == 0) page = (page + 1) % kScratchPages;
    va = kScratchVa + page * mmu::kPageSize;
  } else {
    va = nova::kGuestHwDataVa + u32(rng_.next_below(1024)) * 4 * 16;
  }
  const auto r = rng_.next_bool(0.5) ? ctx.write32(va, u32(rng_.next()))
                                     : ctx.read32(va);
  if (!r.ok) {
    ++stats_.faults;
    ctx.take_fault(r.fault);
  }
}

void ChaosGuest::op_cache(GuestContext& ctx) {
  const vaddr_t va = kScratchVa + u32(rng_.next_below(0x10000));
  switch (rng_.next_below(5)) {
    case 0: hc(ctx, Hypercall::kCacheCleanRange, 0, va, 64 + u32(rng_.next_below(4096))); break;
    case 1: hc(ctx, Hypercall::kIcacheInvalidate); break;
    case 2: hc(ctx, Hypercall::kTlbFlushVa, 0, va); break;
    case 3: hc(ctx, Hypercall::kTlbFlushAll); break;
    default: hc(ctx, Hypercall::kCacheFlushAll); break;
  }
}

void ChaosGuest::op_irq(GuestContext& ctx) {
  switch (rng_.next_below(4)) {
    case 0:
      hc(ctx, Hypercall::kIrqEnable, nova::kVtimerVirq);
      break;
    case 1:
      // Disable then re-enable traffic; also poke unregistered sources
      // (kNotFound) to exercise rejection.
      hc(ctx, Hypercall::kIrqDisable,
         rng_.next_bool(0.5) ? nova::kVtimerVirq : 63u);
      break;
    case 2:
      hc(ctx, Hypercall::kVtimerConfig, 0,
         200 + u32(rng_.next_below(4000)));
      break;
    default:
      hc(ctx, Hypercall::kIrqSetEntry, 0, 0x1000);
      break;
  }
}

void ChaosGuest::op_reg_io(GuestContext& ctx) {
  switch (rng_.next_below(5)) {
    case 0:  // indices 8/9 are invalid — rejection path
      hc(ctx, Hypercall::kRegRead, 0, u32(rng_.next_below(10)));
      break;
    case 1:
      hc(ctx, Hypercall::kRegWrite, 0, u32(rng_.next_below(10)),
         u32(rng_.next()));
      break;
    case 2:
      hc(ctx, Hypercall::kUartWrite, 0, u32('a' + rng_.next_below(26)));
      break;
    case 3:
      hc(ctx, Hypercall::kSdTransfer, 0, u32(rng_.next_below(1024)),
         nova::kGuestHwDataVa + u32(rng_.next_below(16)) * 0x1000);
      break;
    default: {
      // DMA within the hardware-task data section; occasionally aim at an
      // unmapped hole so the page-by-page validation rejects it.
      const vaddr_t dst = nova::kGuestHwDataVa + u32(rng_.next_below(32)) * 1024;
      const vaddr_t src = rng_.next_bool(0.9)
                              ? nova::kGuestHwDataVa + 0x20000 +
                                    u32(rng_.next_below(32)) * 1024
                              : kScratchVa + 0x3F000;
      hc(ctx, Hypercall::kDmaRequest, 0, dst, src,
         64 + u32(rng_.next_below(1024)));
      break;
    }
  }
}

void ChaosGuest::op_hwtask(GuestContext& ctx) {
  if (!cfg_.hwtask_ops || cfg_.tasks.empty()) {
    ctx.spend_insns(300);
    return;
  }
  if (held_task_ == hwtask::kInvalidTask) {
    const hwtask::TaskId task =
        cfg_.tasks[rng_.next_below(cfg_.tasks.size())];
    const auto res = hc(ctx, Hypercall::kHwTaskRequest, task,
                        nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
    if (res.ok()) {
      ++stats_.hw_grants;
      held_task_ = task;
      sw_fallback_ = (res.r1 == nova::kHwGrantSoftware);
      queued_ = (res.r1 == nova::kHwGrantQueued);
      if (queued_) ++stats_.hw_queued;
    }
    return;
  }
  // Two extra dice faces when the scheduler surface is enabled; disabled
  // runs draw the historical 5-face die and keep their digests.
  const u64 dice = rng_.next_below(cfg_.sched_ops ? 7 : 5);
  if (queued_) {
    // Parked grant (admission queue or preemption): the interface page is
    // not mapped until the re-grant, so poll the queue state — or give up
    // and release the parked request — instead of touching the registers.
    if (dice == 1) {
      if (hc(ctx, Hypercall::kHwTaskRelease, held_task_).ok()) {
        ++stats_.hw_releases;
        held_task_ = hwtask::kInvalidTask;
        sw_fallback_ = false;
        queued_ = false;
      }
      return;
    }
    const auto res =
        hc(ctx, Hypercall::kHwTaskQuery, nova::kHwQueryReconfig);
    if (res.ok()) {
      if (res.r1 == nova::kReconfigReady) {
        queued_ = false;
        ++stats_.hw_regrants;
      } else if (res.r1 == nova::kReconfigFallback) {
        queued_ = false;
        sw_fallback_ = true;
      }
    }
    return;
  }
  switch (dice) {
    case 0: {
      const auto res = hc(ctx, Hypercall::kHwTaskQuery, 0);
      if (res.ok() && res.r1 == nova::kReconfigFallback) sw_fallback_ = true;
      // A preempted grant reports Queued: wait for the resume rather than
      // faulting on the demapped interface page.
      if (res.ok() && res.r1 == nova::kReconfigQueued) {
        queued_ = true;
        ++stats_.hw_queued;
      }
      break;
    }
    case 1:
      if (hc(ctx, Hypercall::kHwTaskRelease, held_task_).ok()) {
        ++stats_.hw_releases;
        held_task_ = hwtask::kInvalidTask;
        sw_fallback_ = false;
      }
      break;
    case 5:  // sched_ops only: hardware-task priority override
      if (hc(ctx, Hypercall::kHwTaskQuery, nova::kHwQuerySetPrio,
             1 + u32(rng_.next_below(15)))
              .ok())
        ++stats_.hw_setprios;
      break;
    case 6:  // sched_ops only: quota/in-use introspection
      if (hc(ctx, Hypercall::kHwTaskQuery, nova::kHwQueryQuota).ok())
        ++stats_.hw_quota_polls;
      break;
    default:
      program_job(ctx);
      break;
  }
}

void ChaosGuest::program_job(GuestContext& ctx) {
  if (sw_fallback_) {
    ctx.spend_insns(2000);  // software-equivalent compute
    return;
  }
  const vaddr_t iface = nova::kGuestHwIfaceVa;
  const auto status = ctx.read32(iface + pl::kRegStatus);
  if (!status.ok) {
    // Interface page demapped (reclaimed while we were descheduled): take
    // the fault like a real guest driver and drop the stale grant.
    ++stats_.faults;
    ctx.take_fault(status.fault);
    held_task_ = hwtask::kInvalidTask;
    return;
  }
  if ((status.value & (pl::kStatusDone | pl::kStatusError)) != 0)
    (void)ctx.write32(iface + pl::kRegStatus,
                      pl::kStatusDone | pl::kStatusError);  // w1c ack
  if ((status.value & pl::kStatusLoaded) == 0 ||
      (status.value & pl::kStatusBusy) != 0)
    return;
  const paddr_t data_pa = ctx.pd().hw_data_pa;
  // Usually a well-formed job inside the data section; sometimes a rogue
  // source address the hwMMU must block (§IV.C containment).
  const paddr_t src = rng_.next_bool(0.9)
                          ? data_pa + u32(rng_.next_below(32)) * 1024
                          : 0x100u;
  (void)ctx.write32(iface + pl::kRegSrcAddr, u32(src));
  (void)ctx.write32(iface + pl::kRegSrcLen, 256 + u32(rng_.next_below(1024)));
  (void)ctx.write32(iface + pl::kRegDstAddr,
                    u32(data_pa + 0x20000 + rng_.next_below(32) * 1024));
  (void)ctx.write32(iface + pl::kRegCtrl, pl::kCtrlStart | pl::kCtrlIrqEn);
  ++stats_.jobs_started;
}

void ChaosGuest::op_ivc(GuestContext& ctx) {
  if (!cfg_.ivc_ops || cfg_.ivc_channels.empty()) {
    ctx.spend_insns(200);
    return;
  }
  const u32 ch = rng_.next_bool(0.95)
                     ? cfg_.ivc_channels[rng_.next_below(
                           cfg_.ivc_channels.size())]
                     : 999u;  // bogus channel: kNotFound path
  if (rng_.next_bool(0.6)) {
    if (hc(ctx, Hypercall::kIvcSend, ch, u32(rng_.next()), u32(rng_.next()))
            .ok())
      ++stats_.ivc_sends;
  } else {
    if (hc(ctx, Hypercall::kIvcRecv, ch).ok()) ++stats_.ivc_recvs;
  }
}

void ChaosGuest::on_virq(GuestContext& ctx, u32 irq) {
  ++stats_.virqs;
  // A hung guest services nothing: no register acks, no recv, and — the
  // part the watchdog relies on — no kIrqComplete hypercall to pet it.
  if (spin_steps_ > 0) return;
  if (irq < mem::kNumIrqs && mem::is_pl_irq(irq) &&
      held_task_ != hwtask::kInvalidTask && !sw_fallback_) {
    // Job completion: acknowledge DONE/ERROR through the register group.
    const auto st = ctx.read32(nova::kGuestHwIfaceVa + pl::kRegStatus);
    if (st.ok)
      (void)ctx.write32(nova::kGuestHwIfaceVa + pl::kRegStatus,
                        pl::kStatusDone | pl::kStatusError);
  } else if (irq >= nova::kIvcIrqBase) {
    // Message arrival: drain one message from each of our channels.
    for (u32 ch : cfg_.ivc_channels)
      if (hc(ctx, Hypercall::kIvcRecv, ch).ok()) ++stats_.ivc_recvs;
  }
  hc(ctx, Hypercall::kIrqComplete, irq);
}

}  // namespace minova::workloads
