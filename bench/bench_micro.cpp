// Micro-benchmarks (google-benchmark): host-side cost of the simulator's
// hot primitives and simulated cost of the kernel's fast paths. These guard
// against performance regressions of the simulator itself and document the
// modeled latencies of individual mechanisms.
#include <benchmark/benchmark.h>

#include <array>
#include <functional>

#include "core/platform.hpp"
#include "hwtask/fft_core.hpp"
#include "mmu/page_table.hpp"
#include "nova/host_pool.hpp"
#include "nova/kernel.hpp"
#include "nova/vgic.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "workloads/adpcm.hpp"
#include "workloads/gsm.hpp"

namespace {

using namespace minova;

/// A guest that only yields: a booted VM whose context the benches use.
class Idle final : public nova::GuestOs {
  const char* guest_name() const override { return "idle"; }
  void boot(nova::GuestContext&) override {}
  nova::StepExit step(nova::GuestContext&, cycles_t) override {
    return nova::StepExit::kYield;
  }
  void on_virq(nova::GuestContext&, u32) override {}
};

// ---- simulator primitives (host ns/op) --------------------------------------

void BM_CacheAccessHit(benchmark::State& state) {
  cache::MemHierarchy h;
  h.access_data(0x1000, false);
  for (auto _ : state)
    benchmark::DoNotOptimize(h.access_data(0x1000, false));
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessStreaming(benchmark::State& state) {
  cache::MemHierarchy h;
  paddr_t pa = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.access_data(pa, false));
    pa += 32;
  }
}
BENCHMARK(BM_CacheAccessStreaming);

void BM_TlbLookupHit(benchmark::State& state) {
  cache::Tlb tlb(128);
  tlb.insert(cache::TlbEntry{.asid = 1, .vpage = 1, .ppage = 1, .attrs = 0,
                             .global = false, .large = false, .valid = true,
                             .lru = 0});
  for (auto _ : state)
    benchmark::DoNotOptimize(tlb.lookup(1, 0x1000));
}
BENCHMARK(BM_TlbLookupHit);

void BM_MmuTranslateWalk(benchmark::State& state) {
  mem::PhysMem ram(0, 16 * kMiB);
  cache::MemHierarchy h;
  cache::Tlb tlb(128);
  mmu::Mmu mmu(ram, h, tlb);
  mmu::PageTableAllocator alloc(ram, 1 * kMiB, 4 * kMiB);
  mmu::AddressSpace as(ram, alloc);
  as.map_page(0x40'0000, 0x80'0000, mmu::MapAttrs{});
  mmu.set_ttbr0(as.root());
  mmu.set_dacr(mmu::dacr_set(0, 0, mmu::DomainMode::kClient));
  mmu.set_enabled(true);
  for (auto _ : state) {
    tlb.flush_all();  // force a walk every iteration
    benchmark::DoNotOptimize(
        mmu.translate(0x40'0000, mmu::AccessKind::kRead, false));
  }
}
BENCHMARK(BM_MmuTranslateWalk);

void BM_TlbLookupFullRotation(benchmark::State& state) {
  // Rotate lookups over a full 128-entry TLB: the old linear scan paid an
  // O(N) walk per lookup here; the hash index makes it O(1).
  cache::Tlb tlb(128);
  for (u32 i = 0; i < 128; ++i)
    tlb.insert(cache::TlbEntry{.asid = 1, .vpage = i, .ppage = i, .attrs = 0,
                               .global = false, .large = false, .valid = true,
                               .lru = 0});
  u32 page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(1, page << 12));
    page = (page + 1) & 127;
  }
}
BENCHMARK(BM_TlbLookupFullRotation);

void BM_MmuTranslateHot(benchmark::State& state) {
  // Repeated translation of one hot page: served by the per-core micro-TLB
  // without touching the main TLB's index at all.
  mem::PhysMem ram(0, 16 * kMiB);
  cache::MemHierarchy h;
  cache::Tlb tlb(128);
  mmu::Mmu mmu(ram, h, tlb);
  mmu::PageTableAllocator alloc(ram, 1 * kMiB, 4 * kMiB);
  mmu::AddressSpace as(ram, alloc);
  as.map_page(0x40'0000, 0x80'0000, mmu::MapAttrs{});
  mmu.set_ttbr0(as.root());
  mmu.set_dacr(mmu::dacr_set(0, 0, mmu::DomainMode::kClient));
  mmu.set_enabled(true);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        mmu.translate(0x40'0000, mmu::AccessKind::kRead, false));
}
BENCHMARK(BM_MmuTranslateHot);

void BM_ExecCodeWarm(benchmark::State& state) {
  // A resident 384-byte routine (vm_switch's text size): every one of its
  // 12 lines is an L1I hit, so the fetch memo charges the run in O(1).
  sim::Clock clock;
  mem::PhysMem ram(0, 16 * kMiB);
  mem::Bus bus;
  bus.add_ram(&ram);
  cpu::Core core(clock, ram, bus);
  const cpu::CodeRegion region{0x10'0000, 384};
  core.exec_code(region);
  for (auto _ : state) core.exec_code(region);
  benchmark::DoNotOptimize(clock.now());
}
BENCHMARK(BM_ExecCodeWarm);

// The warm word (DESIGN.md §10.2): a live micro-TLB entry bound to its
// frame and an L1D hit, which `Core::vread32`/`vwrite32` serve inline.
struct WarmWord {
  static constexpr vaddr_t kVa = 0x40'0000;
  WarmWord()
      : ram(0, 16 * kMiB), core(clock, ram, bus),
        alloc(ram, 1 * kMiB, 4 * kMiB), as(ram, alloc) {
    bus.add_ram(&ram);
    as.map_page(kVa, 0x80'0000, mmu::MapAttrs{});
    core.mmu().set_ttbr0(as.root());
    core.mmu().set_dacr(mmu::dacr_set(0, 0, mmu::DomainMode::kClient));
    core.mmu().set_enabled(true);
    (void)core.vwrite32(kVa, 1);  // binds the page and fills the line
  }
  sim::Clock clock;
  mem::PhysMem ram;
  mem::Bus bus;
  cpu::Core core;
  mmu::PageTableAllocator alloc;
  mmu::AddressSpace as;
};

void BM_CoreRead32Hit(benchmark::State& state) {
  WarmWord w;
  vaddr_t va = WarmWord::kVa;
  benchmark::DoNotOptimize(va);
  for (auto _ : state) benchmark::DoNotOptimize(w.core.vread32(va));
}
BENCHMARK(BM_CoreRead32Hit);

void BM_CoreWrite32Hit(benchmark::State& state) {
  WarmWord w;
  vaddr_t va = WarmWord::kVa;
  benchmark::DoNotOptimize(va);
  u32 v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.core.vwrite32(va, ++v));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CoreWrite32Hit);

void BM_GuestRead32Hit(benchmark::State& state) {
  // The same word through a guest's GuestContext, one layer up.
  Platform platform;
  nova::Kernel kernel(platform);
  auto& pd = kernel.create_vm("vm0", 1, std::make_unique<Idle>());
  kernel.run_for_us(100);
  cpu::Core& core = platform.cpu();
  nova::GuestContext ctx(kernel, pd, core);
  vaddr_t va = nova::kGuestHwDataVa;
  benchmark::DoNotOptimize(va);
  if (!ctx.write32(va, 1).ok ||
      core.mmu().bound_hit(va, mmu::AccessKind::kRead, core.privileged())
              .ptr == nullptr) {
    state.SkipWithError("guest data word not served inline");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(ctx.read32(va));
}
BENCHMARK(BM_GuestRead32Hit);

void BM_CounterByString(benchmark::State& state) {
  // The old hot-path pattern: a map lookup (hash + string compare) per bump.
  sim::StatsRegistry reg;
  for (auto _ : state) reg.counter("kernel.trap.hypercall") += 1;
}
BENCHMARK(BM_CounterByString);

void BM_CounterByHandle(benchmark::State& state) {
  // The interned pattern: resolve once, then a single pointer increment.
  sim::StatsRegistry reg;
  sim::CounterHandle h = reg.handle("kernel.trap.hypercall");
  for (auto _ : state) h.inc();
}
BENCHMARK(BM_CounterByHandle);

// ---- behavioral cores (host throughput) -------------------------------------

void BM_FftCore1024(benchmark::State& state) {
  hwtask::FftCore core(1024);
  std::vector<u8> in(1024 * 8, 0x5A);
  for (auto _ : state) benchmark::DoNotOptimize(core.process(in));
  state.SetBytesProcessed(i64(state.iterations()) * i64(in.size()));
}
BENCHMARK(BM_FftCore1024);

void BM_AdpcmEncodeBlock(benchmark::State& state) {
  workloads::AdpcmCodec::State st;
  std::vector<i16> pcm(1024);
  for (std::size_t i = 0; i < pcm.size(); ++i) pcm[i] = i16((i * 37) % 8000);
  for (auto _ : state)
    benchmark::DoNotOptimize(workloads::AdpcmCodec::encode(pcm, st));
  state.SetBytesProcessed(i64(state.iterations()) * i64(pcm.size() * 2));
}
BENCHMARK(BM_AdpcmEncodeBlock);

// The guests' synthetic audio (DESIGN.md §10.5): rotation fast path with
// the exact per-sample fallback, one noise draw per sample.
void BM_AdpcmSynthBlock(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  std::vector<i16> pcm(1024);
  u32 phase = 0;
  for (auto _ : state) {
    workloads::AdpcmWorkload::synthesize(phase, rng, pcm);
    benchmark::DoNotOptimize(pcm.data());
    benchmark::ClobberMemory();
    phase += u32(pcm.size());
  }
  state.SetItemsProcessed(i64(state.iterations()) * i64(pcm.size()));
}
BENCHMARK(BM_AdpcmSynthBlock);

void BM_GsmSynthFrame(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  std::array<i16, workloads::GsmEncoder::kFrameSamples> pcm{};
  u32 phase = 0;
  for (auto _ : state) {
    workloads::GsmWorkload::synthesize(phase, rng, pcm);
    benchmark::DoNotOptimize(pcm.data());
    benchmark::ClobberMemory();
    phase += u32(pcm.size());
  }
  state.SetItemsProcessed(i64(state.iterations()) * i64(pcm.size()));
}
BENCHMARK(BM_GsmSynthFrame);

// ---- device events (host ns/op) ----------------------------------------------

// One kernel-tick-style event per iteration: it fires from `run_due` and
// re-arms itself from its own callback, behind 8 far-off pending events.
void BM_EventQueueTick(benchmark::State& state) {
  struct Tick {
    sim::EventQueue* q;
    const cycles_t* now;
    void operator()() const { q->schedule_at(*now + 100, *this); }
  };
  sim::EventQueue q;
  cycles_t now = 0;
  for (cycles_t i = 0; i < 8; ++i) q.schedule_at(~cycles_t(0) - i, [] {});
  q.schedule_at(100, Tick{&q, &now});
  for (auto _ : state) {
    now += 100;
    benchmark::DoNotOptimize(q.run_due(now));
  }
}
BENCHMARK(BM_EventQueueTick);

// ---- interrupt queries (host ns/op) ------------------------------------------

// One distributor query (the kernel's per-slice poll) with `range(0)` of the
// 96 interrupts enabled and pending, spread over both bitmap words.
void BM_GicHighestPending(benchmark::State& state) {
  irq::Gic gic;
  for (u32 i = 0; i < u32(state.range(0)); ++i) {
    const u32 id = 5 + i * 11;
    gic.set_priority(id, u8(0x80 - i));
    gic.enable_irq(id);
    gic.raise(id);
  }
  for (auto _ : state) benchmark::DoNotOptimize(gic.irq_asserted_for(0x1));
}
BENCHMARK(BM_GicHighestPending)->Arg(0)->Arg(1)->Arg(8);

// Physical GIC reprogramming on VM switches (§III.B), there and back: per
// switch the outgoing VM's sources are masked and the incoming VM's
// unmasked, one of each four pending. The vGICs belong to two VMs of a
// booted kernel, so their record-list reads are the bound-RAM hits at
// kernel VAs that vm_switch makes.
void BM_VgicMaskUnmask(benchmark::State& state) {
  constexpr auto kNeverSkip = [](u32) { return false; };  // one core
  Platform platform;
  nova::Kernel kernel(platform);
  nova::VGic& out =
      kernel.create_vm("out", 1, std::make_unique<Idle>()).vgic();
  nova::VGic& in = kernel.create_vm("in", 1, std::make_unique<Idle>()).vgic();
  kernel.run_for_us(100);
  for (u32 i = 0; i < 4; ++i) {
    out.register_irq(61 + i);
    out.enable(61 + i);
    in.register_irq(65 + i);
    in.enable(65 + i);
  }
  platform.gic().raise(62);
  platform.gic().raise(66);
  auto& core = platform.cpu();
  const auto pass = [&] {
    out.mask_all_physical(core, kNeverSkip);
    in.unmask_enabled_physical(core);
    in.mask_all_physical(core, kNeverSkip);
    out.unmask_enabled_physical(core);
  };
  // A warm pass reads each occupied record twice, every read through the
  // L1D: a read that aborts never reaches the caches.
  pass();
  u64 reads = 0;
  for (const nova::VGic* v : {&out, &in})
    for (const auto& r : v->records()) reads += r.irq != 0 ? 2 : 0;
  const auto& l1d = core.caches().l1d().stats();
  const u64 before = l1d.hits + l1d.misses;
  pass();
  if (!core.mmu().enabled() || l1d.hits + l1d.misses - before != reads) {
    state.SkipWithError("record-list reads do not reach kernel RAM");
    return;
  }
  for (auto _ : state) pass();
  state.SetItemsProcessed(i64(state.iterations()) * 2);  // two switches
}
BENCHMARK(BM_VgicMaskUnmask);

// ---- host-parallel hand-off (host ns/round) ----------------------------------

// One SMP batch round's hand-off with nothing to compute: 4 trivial items
// on 3 workers plus the caller.
void BM_HostPoolRound(benchmark::State& state) {
  nova::HostPool pool(3);
  std::array<u64, 4> done{};
  const std::function<void(std::size_t)> item = [&](std::size_t i) {
    ++done[i];
  };
  for (auto _ : state) pool.run(done.size(), item);
  benchmark::DoNotOptimize(done.data());
}
BENCHMARK(BM_HostPoolRound);

// ---- simulated fast-path latencies (reported in simulated us) ---------------

void BM_SimulatedHypercallRoundTrip(benchmark::State& state) {
  // A null-ish hypercall (register read): the paravirtualization tax.
  Platform platform;
  nova::Kernel kernel(platform);
  auto& pd = kernel.create_vm("vm0", 1, std::make_unique<Idle>());
  kernel.run_for_us(100);
  nova::GuestContext ctx(kernel, pd, platform.cpu());
  double total_us = 0;
  u64 n = 0;
  for (auto _ : state) {
    const cycles_t t0 = platform.clock().now();
    benchmark::DoNotOptimize(
        ctx.hypercall(nova::Hypercall::kRegRead, 0, 0));
    total_us += platform.clock().cycles_to_us(platform.clock().now() - t0);
    ++n;
  }
  state.counters["sim_us_per_call"] = total_us / double(n);
}
BENCHMARK(BM_SimulatedHypercallRoundTrip);

}  // namespace

BENCHMARK_MAIN();
