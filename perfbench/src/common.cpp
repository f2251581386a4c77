#include "common.hpp"

#include <algorithm>
#include <cstring>

#include "nova/inspector.hpp"
#include "nova/kmem.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace minova;

void Digest::mix_double(double d) {
  u64 bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  mix(bits);
}

nova::StepExit TimedGuest::step(nova::GuestContext& ctx, cycles_t budget) {
  const cycles_t start = ctx.core_now();
  if (sink_ != nullptr && sink_->on) {
    if (rec_ == Record::kFirstStep && steps_ == 0)
      sink_->v.push_back(start - created_at_);
    else if (rec_ == Record::kWaits && steps_ > 0 && start > last_end_)
      sink_->v.push_back(start - last_end_);
  }
  ++steps_;
  nova::StepExit e;
  if (Tracer* t = tracer()) {
    const u32 idx = t->open(SpanName::kStep, t->current_parent());
    e = inner_->step(ctx, budget);
    t->close(idx);
  } else {
    e = inner_->step(ctx, budget);
  }
  last_end_ = ctx.core_now();
  return e;
}

u64 Gate::failures() const {
  u64 n = 0;
  for (const auto& [name, ok] : checks) n += ok ? 0 : 1;
  return n;
}

std::map<std::string, u64> snapshot_counters(nova::Kernel& kernel) {
  Platform& p = kernel.platform();
  const auto& st = p.stats();
  std::map<std::string, u64> c;
  c["nova.vm_switches"] = kernel.vm_switch_count();
  c["nova.vm_switch_cycles"] = kernel.vm_switch_cycles_total();
  for (u32 k = 0; k < u32(nova::TrapKind::kCount); ++k) {
    const char* kind = nova::trap_kind_name(nova::TrapKind(k));
    c[std::string("nova.trap.") + kind] =
        st.counter_value(std::string("kernel.trap.") + kind);
  }
  c["nova.virq_injected"] = st.counter_value("kernel.virq_injected");
  c["nova.smp.ipis"] = st.counter_value("kernel.ipi.sent");
  c["nova.smp.steals"] = st.counter_value("kernel.smp.steals");
  c["nova.smp.shootdowns"] = kernel.shootdowns_sent();
  c["nova.asid_rollovers"] = kernel.asid_rollovers();
  for (u32 i = 0; i < p.num_lanes(); ++i) {
    cpu::Core& lane = p.lane(i);
    const auto& u = lane.mmu().micro_stats();
    c["mmu.utlb_hits"] += u.hits;
    c["mmu.utlb_misses"] += u.misses;
    const auto& t = lane.tlb().stats();
    c["cache.tlb_hits"] += t.hits;
    c["cache.tlb_misses"] += t.misses;
    const auto add_cache = [&](const char* name, const cache::Cache& cc) {
      c[std::string("cache.") + name + "_hits"] += cc.stats().hits;
      c[std::string("cache.") + name + "_misses"] += cc.stats().misses;
    };
    add_cache("l1i", lane.caches().l1i());
    add_cache("l1d", lane.caches().l1d());
    add_cache("l2", lane.caches().l2());
    c["cache.l2_writebacks"] += lane.caches().l2().stats().writebacks;
  }
  c["pl.pcap_transfers"] = p.pcap().transfers_completed();
  c["pl.pcap_errors"] = p.pcap().crc_errors() + p.pcap().transfer_errors() +
                        p.pcap().region_busy_errors();
  return c;
}

void traced_run_for_us(nova::Kernel& kernel, double us) {
  Tracer* t = tracer();
  if (t == nullptr) {
    kernel.run_for_us(us);
    return;
  }
  const u32 idx = t->open(SpanName::kRun, Tracer::kNoParent);
  t->set_current_parent(idx);
  kernel.run_for_us(us);
  t->close(idx);
  t->set_current_parent(Tracer::kNoParent);
}

// Written with every probe's results so none of the probed calls is dead.
volatile u64 probe_sink = 0;

namespace {

// Host ns per call of `op` over the stream: median of several passes, after
// one untimed pass that warms every level.
template <typename Op>
double probe_ns(std::size_t n, Op&& op) {
  for (std::size_t i = 0; i < n; ++i) op(i);
  std::vector<double> per_op;
  for (int rep = 0; rep < 7; ++rep) {
    const u64 t0 = Tracer::now_ns();
    for (std::size_t i = 0; i < n; ++i) op(i);
    per_op.push_back(double(Tracer::now_ns() - t0) / double(n));
  }
  return median(per_op);
}

}  // namespace

void run_probes(Workload& w, u64 seed, Metrics& layer) {
  nova::Kernel& kernel = w.kernel();
  Platform& plat = w.platform();
  nova::ProtectionDomain& pd = w.probe_pd();
  kernel.ensure_space(pd);
  cpu::Core& core = plat.lane(0);
  pd.vcpu().restore_active(core);

  constexpr std::size_t kStream = 1u << 15;
  util::Xoshiro256 rng(seed ^ 0x9E37'79B9'7F4A'7C15ull);
  const u32 words = std::max<u32>(1, w.probe_bytes() / 4);
  std::vector<vaddr_t> va(kStream);
  std::vector<paddr_t> pa(kStream);
  u64 faults = 0;
  for (std::size_t i = 0; i < kStream; ++i) {
    va[i] = nova::kGuestHwDataVa + vaddr_t(rng.next() % words) * 4;
    const auto tr = core.mmu().translate(va[i], mmu::AccessKind::kRead,
                                         core.privileged());
    faults += tr.ok() ? 0 : 1;
    pa[i] = tr.pa;
  }
  const u32 asid = core.mmu().asid();
  u64 sink = 0;
  nova::GuestContext ctx(kernel, pd, core);
  layer["access.guest_read32_ns"] = probe_ns(kStream, [&](std::size_t i) {
    const auto r = ctx.read32(va[i]);
    faults += r.ok ? 0 : 1;
    sink += r.value;
  });
  layer["access.core_vread32_ns"] = probe_ns(kStream, [&](std::size_t i) {
    sink += core.vread32(va[i]).value;
  });
  layer["access.translate_ns"] = probe_ns(kStream, [&](std::size_t i) {
    sink += core.mmu()
                .translate(va[i], mmu::AccessKind::kRead, core.privileged())
                .pa;
  });
  layer["access.tlb_lookup_ns"] = probe_ns(kStream, [&](std::size_t i) {
    sink += core.tlb().lookup(asid, va[i]) != nullptr;
  });
  layer["access.cache_ns"] = probe_ns(kStream, [&](std::size_t i) {
    sink += core.caches().access_data(pa[i], false);
  });
  layer["access.phys_read32_ns"] = probe_ns(kStream, [&](std::size_t i) {
    sink += plat.dram().read32(pa[i]);
  });
  layer["access.probe_faults"] = double(faults);

  // Bare trap: the cheapest hypercall, issued from the probe guest.
  nova::GuestContext hc(kernel, pd, plat.cpu());
  layer["nova.hypercall_ns.reg_read"] = probe_ns(4096, [&](std::size_t) {
    sink += hc.hypercall(nova::Hypercall::kRegRead, 0).r1;
  });
  probe_sink = sink;
}

void report_manager(const hwmgr::ManagerStats& now,
                    const hwmgr::ManagerStats& base, Metrics& layer) {
  const auto d = [&](u64 hwmgr::ManagerStats::*f) {
    return double(now.*f - base.*f);
  };
  layer["hwmgr.requests"] = d(&hwmgr::ManagerStats::requests);
  layer["hwmgr.grants_reconfig"] = d(&hwmgr::ManagerStats::grants_with_reconfig);
  layer["hwmgr.busy_rejections"] = d(&hwmgr::ManagerStats::busy_rejections);
  layer["hwmgr.reclaims"] = d(&hwmgr::ManagerStats::reclaims);
  layer["hwmgr.preemptions"] = d(&hwmgr::ManagerStats::preemptions);
  layer["hwmgr.resumes"] = d(&hwmgr::ManagerStats::resumes);
  layer["hwmgr.wait_grants"] = d(&hwmgr::ManagerStats::wait_grants);
  const double hits = d(&hwmgr::ManagerStats::cache_hits);
  const double lookups = hits + d(&hwmgr::ManagerStats::cache_misses);
  layer["hwmgr.cache_lookups"] = lookups;
  layer["hwmgr.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - double(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace perfbench
