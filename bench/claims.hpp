// The paper's design claims for run_all's "claims" JSON section: the Fig. 9
// configurations and six ablations, each over the fixed seeds kClaimSeeds,
// plus two seedless sweeps (PCAP latency vs bitstream size, software vs
// hardware FFT). bench/check_table3.py holds the rule for each claim.
//
// Every (seed, configuration) pair is an independent simulation, so the jobs
// run on host threads. Each job writes only its own result slot, so no
// simulated number depends on the thread count.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "hwmgr/manager.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"
#include "util/assert.hpp"
#include "workloads/softdsp.hpp"

namespace minova::bench {

inline constexpr u64 kClaimSeeds[] = {42, 1, 2, 3};
inline constexpr double kFig9SimMs = 2000.0;

/// The settings the ablations vary. The defaults are the paper's system.
struct Knobs {
  u32 guests = 4;
  bool lazy = true;       // lazy VFP / L2-control switching (Table I)
  bool asid = true;       // ASID reload instead of a full TLB flush (§III.C)
  bool blocking = false;  // the manager waits for the PCAP (§IV.E ablation)
  double quantum_ms = 33.0;
  u32 prr_pairs = 2;      // large and small PRRs each
  hwmgr::AllocPolicy policy = hwmgr::AllocPolicy::kResidentFirst;
};

struct Ablation {
  const char* name;
  double sim_ms;
  std::vector<std::pair<const char*, Knobs>> configs;
};

/// The ablations, each at its own window, with the configurations it
/// compares.
inline std::vector<Ablation> ablations() {
  using P = hwmgr::AllocPolicy;
  return {
      {"quantum", 1500.0,
       {{"8 ms", {.quantum_ms = 8.0}},
        {"33 ms", {}},
        {"132 ms", {.quantum_ms = 132.0}}}},
      {"lazy", 1000.0, {{"lazy", {}}, {"active", {.lazy = false}}}},
      {"asid", 1000.0,
       {{"2 ASID", {.guests = 2}},
        {"2 flush", {.guests = 2, .asid = false}},
        {"4 ASID", {}},
        {"4 flush", {.asid = false}}}},
      {"pcap", 1000.0,
       {{"overlapped", {.guests = 2}},
        {"blocking", {.guests = 2, .blocking = true}}}},
      {"policies", 1000.0,
       {{"resident-first", {}},
        {"first-fit", {.policy = P::kFirstFit}},
        {"LRU region", {.policy = P::kLruRegion}}}},
      {"floorplan", 1000.0,
       {{"1L+1S", {.prr_pairs = 1}},
        {"2L+2S", {}},
        {"3L+3S", {.prr_pairs = 3}},
        {"4L+4S", {.prr_pairs = 4}}}},
  };
}

/// What the ablation claims read from one run. Counts are exact in a double.
struct AblationRun {
  double vm_switches = 0, vfp_transfers = 0;
  double tlb_flushes = 0, tlb_miss_rate = 0, l1i_miss_rate = 0;
  double requests = 0, grants = 0, busy = 0, no_reconfig_grants = 0;
  double pcaps = 0, reclaims = 0, jobs = 0, guest_ticks = 0;
  double entry_us = 0, exec_us = 0, total_us = 0;
};

inline constexpr std::pair<const char*, double AblationRun::*>
    kAblationMetrics[] = {
        {"vm_switches", &AblationRun::vm_switches},
        {"vfp_transfers", &AblationRun::vfp_transfers},
        {"tlb_flushes", &AblationRun::tlb_flushes},
        {"tlb_miss_rate", &AblationRun::tlb_miss_rate},
        {"l1i_miss_rate", &AblationRun::l1i_miss_rate},
        {"requests", &AblationRun::requests},
        {"grants", &AblationRun::grants},
        {"busy", &AblationRun::busy},
        {"no_reconfig_grants", &AblationRun::no_reconfig_grants},
        {"pcaps", &AblationRun::pcaps},
        {"reclaims", &AblationRun::reclaims},
        {"jobs", &AblationRun::jobs},
        {"guest_ticks", &AblationRun::guest_ticks},
        {"entry_us", &AblationRun::entry_us},
        {"exec_us", &AblationRun::exec_us},
        {"total_us", &AblationRun::total_us},
};

inline AblationRun run_ablation(const Knobs& k, u64 seed, double sim_ms) {
  ucos::SystemConfig cfg;
  cfg.num_guests = k.guests;
  cfg.seed = seed;
  cfg.kernel.lazy_vfp = cfg.kernel.lazy_l2ctrl = k.lazy;
  cfg.kernel.use_asid = k.asid;
  cfg.kernel.quantum_ms = k.quantum_ms;
  cfg.platform.large_prrs = cfg.platform.small_prrs = k.prr_pairs;
  auto sys = std::make_unique<ucos::VirtualizedSystem>(cfg);
  sys->manager().set_policy(k.policy);
  sys->manager().set_blocking_reconfig(k.blocking);
  const Measurement m = measure(*sys, sim_ms);

  AblationRun r;
  r.vm_switches = double(sys->kernel().vm_switch_count());
  // Active switching saves and restores the bank on every VM switch.
  r.vfp_transfers =
      k.lazy ? double(sys->platform().stats().counter_value(
                   "kernel.trap.vfp_switch"))
             : 2.0 * r.vm_switches;
  const auto& tlb = sys->platform().cpu().tlb().stats();
  r.tlb_flushes = double(tlb.flushes);
  r.tlb_miss_rate = tlb.miss_rate();
  r.l1i_miss_rate = sys->platform().cpu().caches().l1i().stats().miss_rate();
  const auto thw = sys->total_thw_stats();
  r.requests = double(thw.requests);
  r.grants = double(thw.grants);
  r.busy = double(thw.busy_retries);
  r.jobs = double(thw.jobs_completed);
  r.no_reconfig_grants = double(sys->manager().stats().grants_no_reconfig);
  r.reclaims = double(sys->manager().stats().reclaims);
  r.pcaps = double(sys->platform().pcap().transfers_completed());
  for (u32 g = 0; g < sys->num_guests(); ++g)
    r.guest_ticks += double(sys->guest(g).os().tick_count());
  r.entry_us = m.entry;
  r.exec_us = m.exec;
  r.total_us = m.total;
  return r;
}

/// PCAP reconfiguration latency vs bitstream size (§V.B, ref [17]).
struct PcapSizeRow {
  std::string task;
  double kib = 0, model_us = 0, measured_us = 0;
  double kib_per_ms() const { return kib / (measured_us / 1000.0); }
};

/// Every library task programmed through the devcfg registers in turn on one
/// platform, timed from the first register write to the done status.
inline std::vector<PcapSizeRow> run_pcap_sizes() {
  Platform platform;
  auto& lib = platform.task_library();
  auto& bus = platform.bus();
  std::vector<PcapSizeRow> rows;
  for (hwtask::TaskId id : lib.ids()) {
    const hwtask::TaskInfo* info = lib.find(id);
    const cycles_t t0 = platform.clock().now();
    bus.write32(mem::kDevcfgBase + pl::kPcapSrcAddr, 0x0080'0000u);
    bus.write32(mem::kDevcfgBase + pl::kPcapLen, info->bitstream_bytes);
    bus.write32(mem::kDevcfgBase + pl::kPcapTarget,
                info->compatible_prrs.front());
    bus.write32(mem::kDevcfgBase + pl::kPcapTaskId, id);
    bus.write32(mem::kDevcfgBase + pl::kPcapCtrl, 1);
    cycles_t dl = 0;
    while (platform.events().next_deadline(dl)) {
      platform.clock().advance_to(dl);
      platform.pump();
      u32 status = 0;
      bus.read32(mem::kDevcfgBase + pl::kPcapStatus, status);
      if (status & pl::kPcapStatusDone) break;
    }
    bus.write32(mem::kDevcfgBase + pl::kPcapStatus,
                pl::kPcapStatusDone);  // W1C for the next round
    rows.push_back(
        {info->name, double(info->bitstream_bytes) / kKiB,
         platform.clock().cycles_to_us(
             platform.pcap().transfer_cycles(info->bitstream_bytes)),
         platform.clock().cycles_to_us(platform.clock().now() - t0)});
  }
  return rows;
}

/// One FFT size as software on the A9 and as a DPR hardware task through the
/// full Mini-NOVA path, from a cold region (PCAP included) and a resident one
/// (§I: "the overall performance can be drastically improved").
struct HwSwRow {
  u32 points = 0;
  double sw_us = 0, hw_cold_us = 0, hw_warm_us = 0;
};

namespace detail {

/// Bare-metal guest that only records completion interrupts.
class MeasureGuest final : public nova::GuestOs {
 public:
  const char* guest_name() const override { return "measure"; }
  void boot(nova::GuestContext& ctx) override {
    ctx.hypercall(nova::Hypercall::kIrqSetEntry, 0, 0x8000);
  }
  nova::StepExit step(nova::GuestContext&, cycles_t) override {
    return nova::StepExit::kYield;
  }
  void on_virq(nova::GuestContext& ctx, u32 irq) override {
    if (irq != nova::kVtimerVirq && irq != mem::kIrqDevcfg) completion = true;
    ctx.hypercall(nova::Hypercall::kIrqComplete, irq);
  }
  bool completion = false;
};

/// The software FFT's view of the guest: memory, VFP and time only.
class GuestSvcShim final : public workloads::Services {
 public:
  explicit GuestSvcShim(nova::GuestContext& ctx) : ctx_(ctx) {}
  void exec(const cpu::CodeRegion& r, double f) override { ctx_.exec(r, f); }
  void spend_insns(u64 n) override { ctx_.spend_insns(n); }
  bool read32(vaddr_t va, u32& out) override {
    auto r = ctx_.read32(va);
    out = r.value;
    return r.ok;
  }
  bool write32(vaddr_t va, u32 v) override { return ctx_.write32(va, v).ok; }
  bool read_block(vaddr_t va, std::span<u8> o) override {
    return ctx_.read_block(va, o).ok;
  }
  bool write_block(vaddr_t va, std::span<const u8> i) override {
    return ctx_.write_block(va, i).ok;
  }
  void use_vfp() override { ctx_.use_vfp(); }
  double now_us() override { return ctx_.now_us(); }
  workloads::HwReqStatus hw_request(u32, vaddr_t, vaddr_t) override {
    return workloads::HwReqStatus::kError;
  }
  bool hw_release(u32) override { return false; }
  bool hw_reconfig_done() override { return true; }
  bool hw_take_completion() override { return false; }
  vaddr_t hw_iface_va() const override { return nova::kGuestHwIfaceVa; }
  vaddr_t hw_data_va() const override { return nova::kGuestHwDataVa; }
  paddr_t hw_data_pa() const override {
    return nova::vm_phys_base(0) + nova::kGuestHwDataVa;
  }
  u32 hw_data_size() const override { return nova::kGuestHwDataSize; }

 private:
  nova::GuestContext& ctx_;
};

/// One request → DMA in → compute → completion IRQ round trip, in µs.
inline double run_hw_once(Platform& platform, nova::Kernel& kernel,
                          nova::ProtectionDomain& pd, MeasureGuest& guest,
                          hwtask::TaskId task, u32 points) {
  using nova::Hypercall;
  nova::GuestContext ctx(kernel, pd, platform.cpu());
  const double t0 = kernel.now_us();
  auto res = ctx.hypercall(Hypercall::kHwTaskRequest, task,
                           nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  MINOVA_CHECK(res.ok());
  if (res.r1 != 0) {  // PCAP in flight: wait for completion
    while (true) {
      const auto q = ctx.hypercall(Hypercall::kHwTaskQuery, 0);
      if (q.ok() && q.r1 == 1) break;
      platform.idle_until_next_event(platform.clock().now() +
                                     platform.clock().us_to_cycles(100));
    }
  }
  std::vector<u8> in(std::size_t(points) * 8);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = u8(i * 13);
  GuestSvcShim svc(ctx);
  MINOVA_CHECK(svc.write_block(nova::kGuestHwDataVa, in));
  const paddr_t data_pa = nova::vm_phys_base(0) + nova::kGuestHwDataVa;
  guest.completion = false;
  svc.write32(nova::kGuestHwIfaceVa + pl::kRegSrcAddr, data_pa);
  svc.write32(nova::kGuestHwIfaceVa + pl::kRegSrcLen, u32(in.size()));
  svc.write32(nova::kGuestHwIfaceVa + pl::kRegDstAddr, data_pa + 0x20000);
  svc.write32(nova::kGuestHwIfaceVa + pl::kRegCtrl,
              pl::kCtrlStart | pl::kCtrlIrqEn);
  while (!guest.completion) kernel.run_for_us(20);
  svc.write32(nova::kGuestHwIfaceVa + pl::kRegStatus, pl::kStatusDone);
  return kernel.now_us() - t0;
}

}  // namespace detail

inline constexpr std::pair<hwtask::TaskId, u32> kHwSwFfts[] = {
    {hwtask::TaskLibrary::kFft1024, 1024},
    {hwtask::TaskLibrary::kFft4096, 4096},
    {hwtask::TaskLibrary::kFft8192, 8192},
};

inline HwSwRow run_hw_vs_sw(hwtask::TaskId task, u32 points) {
  Platform platform;
  auto kernel = std::make_unique<nova::Kernel>(platform);
  hwmgr::ManagerService manager(*kernel);
  manager.install(2);
  auto guest = std::make_unique<detail::MeasureGuest>();
  detail::MeasureGuest* g = guest.get();
  auto& pd = kernel->create_vm("measure", 1, std::move(guest));
  kernel->run_for_us(200);  // boot

  nova::GuestContext ctx(*kernel, pd, platform.cpu());
  detail::GuestSvcShim svc(ctx);
  std::vector<u8> frame(std::size_t(points) * 8, 0x3C);
  MINOVA_CHECK(svc.write_block(nova::kGuestUserVa + 0x10000, frame));
  HwSwRow row;
  row.points = points;
  const double sw0 = kernel->now_us();
  workloads::soft_fft(svc, nova::kGuestUserVa + 0x10000, points);
  row.sw_us = kernel->now_us() - sw0;
  row.hw_cold_us = detail::run_hw_once(platform, *kernel, pd, *g, task, points);
  row.hw_warm_us = detail::run_hw_once(platform, *kernel, pd, *g, task, points);
  return row;
}

struct Claims {
  std::vector<std::vector<Measurement>> fig9;  // [seed][native, 1..4 OS]
  std::vector<std::vector<std::vector<AblationRun>>> runs;  // [ablation][seed][config]
  std::vector<PcapSizeRow> pcap_sizes;
  std::vector<HwSwRow> hw_vs_sw;
};

/// Runs every claim configuration on `threads` host threads. The longest
/// jobs (Fig. 9 and the quantum ablation) are queued first.
inline Claims run_claims(unsigned threads) {
  constexpr std::size_t kSeeds = std::size(kClaimSeeds);
  const auto abl = ablations();
  Claims c;
  c.fig9.assign(kSeeds, std::vector<Measurement>(5));
  c.runs.resize(abl.size());
  c.hw_vs_sw.resize(std::size(kHwSwFfts));
  std::vector<std::function<void()>> jobs;
  for (std::size_t s = 0; s < kSeeds; ++s)
    for (u32 g = 0; g <= 4; ++g)
      jobs.push_back([&c, s, g] {
        const u64 seed = kClaimSeeds[s];
        c.fig9[s][g] = g == 0 ? run_native(kFig9SimMs, seed)
                              : run_virtualized(g, kFig9SimMs, seed);
      });
  for (std::size_t a = 0; a < abl.size(); ++a) {
    c.runs[a].assign(kSeeds, std::vector<AblationRun>(abl[a].configs.size()));
    for (std::size_t s = 0; s < kSeeds; ++s)
      for (std::size_t k = 0; k < abl[a].configs.size(); ++k)
        jobs.push_back([&c, &abl, a, s, k] {
          c.runs[a][s][k] = run_ablation(abl[a].configs[k].second,
                                         kClaimSeeds[s], abl[a].sim_ms);
        });
  }
  jobs.push_back([&c] { c.pcap_sizes = run_pcap_sizes(); });
  for (std::size_t i = 0; i < std::size(kHwSwFfts); ++i)
    jobs.push_back([&c, i] {
      c.hw_vs_sw[i] = run_hw_vs_sw(kHwSwFfts[i].first, kHwSwFfts[i].second);
    });

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next++) < jobs.size();) jobs[i]();
  };
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  return c;
}

}  // namespace minova::bench
