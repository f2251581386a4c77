// Host-thread invariance of the SMP engine (DESIGN.md §14).
//
// The `host_threads` knob is a pure host-speed control: every simulated
// number — clock readings, VM switch counts, per-core scheduling and
// coherence counters, guest-visible checksums — must be bit-identical at
// any thread count. These tests run the same configuration at 1 host
// thread (the fully serial engine) and at 2/3/4/8 and compare an FNV
// digest over everything observable. Scenario-scale runs do the same
// through the fuzzer's digest.
// The suite also carries the starvation/liveness case: one core flooding
// its siblings with shootdown IPIs must not keep the batch engine from
// making progress.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"
#include "nova/inspector.hpp"
#include "nova/kernel.hpp"
#include "stub_guest.hpp"
#include "util/fnv.hpp"
#include "workloads/compute.hpp"

namespace minova::nova {
namespace {

using testing::StubGuest;
using workloads::StreamComputeConfig;
using workloads::StreamComputeGuest;

// Lane clocks are written concurrently by the batch phase: two adjacent
// ones must never share a 64-byte host cache line.
constexpr std::size_t kHostCacheLine = 64;
static_assert(alignof(LaneClock) % kHostCacheLine == 0);
static_assert(sizeof(LaneClock) % kHostCacheLine == 0);

// Host thread counts to sweep against the threads=1 reference. 3 leaves
// one thread two home lanes on 4 cores; 8 is clamped to the core count.
constexpr u32 kThreadCounts[] = {2, 3, 4, 8};

// Run `cores` simulated cores, two stream-compute guests per core, for
// `sim_ms`, and digest everything a caller could observe.
u64 run_stream_digest(u32 cores, u32 threads, double sim_ms) {
  Platform platform;
  KernelConfig cfg;
  cfg.num_cores = cores;
  cfg.host_threads = threads;
  cfg.quantum_ms = 1.0;
  Kernel kernel(platform, cfg);
  std::vector<StreamComputeGuest*> guests;
  for (u32 i = 0; i < cores * 2; ++i) {
    StreamComputeConfig gc;
    gc.seed = 0xC0DE + i;
    auto g = std::make_unique<StreamComputeGuest>(gc);
    guests.push_back(g.get());
    kernel.create_vm("stream" + std::to_string(i), 1 + (i % 3), std::move(g));
  }
  kernel.run_for_us(sim_ms * 1000.0);

  KernelInspector insp(kernel);
  util::Fnv1a d;
  d.mix(platform.clock().now());
  d.mix(insp.vm_switches());
  d.mix(insp.hypercalls());
  d.mix(insp.tlb_epoch());
  d.mix(insp.shootdowns_sent());
  for (u32 c = 0; c < insp.num_cores(); ++c) {
    const auto cv = insp.core(c);
    d.mix(cv.local_now());
    d.mix(cv.ipis_sent());
    d.mix(cv.ipis_received());
    d.mix(cv.shootdowns_acked());
    d.mix(cv.steals());
    d.mix(cv.irq_traps());
    d.mix(cv.vm_switches());
    d.mix(cv.utlb_generation());
  }
  for (const auto* g : guests) {
    d.mix(g->checksum());
    d.mix(g->steps());
  }
  return d.h;
}

TEST(MtDiffTest, StreamComputeDigestInvariantAcrossThreads) {
  for (u32 cores : {2u, 4u, 8u}) {
    const u64 ref = run_stream_digest(cores, 1, 10.0);
    for (u32 t : kThreadCounts)
      EXPECT_EQ(run_stream_digest(cores, t, 10.0), ref)
          << "cores=" << cores << " threads=" << t;
  }
}

TEST(MtDiffTest, UnicoreIsUntouchedByThreadKnob) {
  // cores == 1 never builds a batch; the knob must still be inert.
  const u64 ref = run_stream_digest(1, 1, 10.0);
  EXPECT_EQ(run_stream_digest(1, 4, 10.0), ref);
}

// Mixed serial/compute traffic: stub guests hypercall and burn budget (the
// serial path) while stream guests feed the batch. Steals and cross-core
// IPIs happen between them; the digest must not move with the thread count.
u64 run_mixed_digest(u32 cores, u32 threads, double sim_ms) {
  Platform platform;
  KernelConfig cfg;
  cfg.num_cores = cores;
  cfg.host_threads = threads;
  cfg.quantum_ms = 0.5;
  Kernel kernel(platform, cfg);
  std::vector<StreamComputeGuest*> streams;
  std::vector<StubGuest*> stubs;
  for (u32 i = 0; i < cores; ++i) {
    StreamComputeConfig gc;
    gc.seed = 7'000 + i;
    auto g = std::make_unique<StreamComputeGuest>(gc);
    streams.push_back(g.get());
    kernel.create_vm("stream" + std::to_string(i), 2, std::move(g));
    auto s = std::make_unique<StubGuest>(
        [](GuestContext& ctx, cycles_t budget) {
          // Shootdown traffic (TLBIMVAIS broadcast + IPIs) from the serial
          // path, interleaved with the deferred compute steps.
          (void)ctx.hypercall(Hypercall::kTlbFlushVa, 0,
                              u32(kGuestHwDataVa));
          ctx.spend_insns(budget / 4 + 1);
          return StepExit::kBudget;
        });
    stubs.push_back(s.get());
    kernel.create_vm("stub" + std::to_string(i), 1, std::move(s));
  }
  kernel.run_for_us(sim_ms * 1000.0);

  KernelInspector insp(kernel);
  util::Fnv1a d;
  d.mix(platform.clock().now());
  d.mix(insp.vm_switches());
  d.mix(insp.hypercalls());
  d.mix(insp.tlb_epoch());
  d.mix(insp.shootdowns_sent());
  for (u32 c = 0; c < insp.num_cores(); ++c) {
    const auto cv = insp.core(c);
    d.mix(cv.local_now());
    d.mix(cv.ipis_sent());
    d.mix(cv.ipis_received());
    d.mix(cv.shootdowns_acked());
    d.mix(cv.steals());
    d.mix(cv.vm_switches());
  }
  for (const auto* g : streams) d.mix(g->checksum());
  for (const auto* s : stubs) d.mix(s->steps);
  return d.h;
}

TEST(MtDiffTest, MixedSerialAndComputeTrafficInvariant) {
  for (u32 cores : {2u, 4u}) {
    const u64 ref = run_mixed_digest(cores, 1, 10.0);
    for (u32 t : kThreadCounts)
      EXPECT_EQ(run_mixed_digest(cores, t, 10.0), ref)
          << "cores=" << cores << " threads=" << t;
  }
}

// Fuzz-scenario scale: full chaos traffic (hypercalls, faults, IVC, DPR)
// plus compute bursts, including lifecycle churn. The scenario digest
// folds per-core counters, so any thread-count leak shows up.
void expect_scenario_invariant(u64 seed, u32 cores, bool lifecycle) {
  fuzz::ScenarioOptions opts;
  opts.seed = seed;
  opts.max_steps = 5000;
  opts.num_cores = cores;
  opts.compute = true;
  opts.lifecycle = lifecycle;
  // MT shards avoid DPR traffic: DMA completions are device events, and
  // keeping them out makes compute bursts more frequent.
  opts.hwtask = !lifecycle;
  opts.host_threads = 1;
  const auto ref = fuzz::run_scenario(opts);
  EXPECT_FALSE(ref.failed) << ref.report;
  for (u32 t : kThreadCounts) {
    fuzz::ScenarioOptions mt = opts;
    mt.host_threads = t;
    const auto res = fuzz::run_scenario(mt);
    EXPECT_FALSE(res.failed) << res.report;
    EXPECT_EQ(res.digest, ref.digest) << "seed=" << seed << " threads=" << t;
    EXPECT_EQ(res.steps, ref.steps) << "seed=" << seed << " threads=" << t;
  }
}

TEST(MtDiffTest, FuzzScenarioDigestInvariant) {
  expect_scenario_invariant(7001, 2, /*lifecycle=*/false);
  expect_scenario_invariant(7002, 4, /*lifecycle=*/false);
}

TEST(MtDiffTest, FuzzLifecycleScenarioDigestInvariant) {
  expect_scenario_invariant(7003, 4, /*lifecycle=*/true);
}

// Liveness under IPI flood: core 0's stub spams shootdown broadcasts while
// every other core runs compute guests through the batch. The engine must
// keep all cores progressing (no starvation of the deferred path) and the
// completion handshake must converge once the flood stops.
TEST(MtLivenessTest, ShootdownFlood) {
  for (u32 threads : {1u, 4u}) {
    Platform platform;
    KernelConfig cfg;
    cfg.num_cores = 4;
    cfg.host_threads = threads;
    cfg.quantum_ms = 0.5;
    Kernel kernel(platform, cfg);
    auto flood = std::make_unique<StubGuest>(
        [](GuestContext& ctx, cycles_t) {
          for (int i = 0; i < 8; ++i)
            (void)ctx.hypercall(Hypercall::kTlbFlushVa, 0,
                                u32(kGuestHwDataVa + 0x1000u * u32(i)));
          return StepExit::kBudget;
        });
    StubGuest* flood_raw = flood.get();
    auto& flood_pd = kernel.create_vm("flood", 5, std::move(flood));
    flood_pd.core_pinned = true;  // stays on core 0, keeps flooding
    std::vector<StreamComputeGuest*> streams;
    for (u32 i = 0; i < 3; ++i) {
      StreamComputeConfig gc;
      gc.seed = 0xF10D + i;
      auto g = std::make_unique<StreamComputeGuest>(gc);
      streams.push_back(g.get());
      auto& pd = kernel.create_vm("stream" + std::to_string(i), 1,
                                  std::move(g));
      pd.core_pinned = true;  // cores 1..3 (round-robin placement)
    }
    kernel.run_for_us(20'000.0);

    KernelInspector insp(kernel);
    EXPECT_GT(insp.shootdowns_sent(), 100u) << "threads=" << threads;
    for (auto* g : streams)
      EXPECT_GT(g->steps(), 10u) << "threads=" << threads;
    EXPECT_GT(flood_raw->steps, 10u) << "threads=" << threads;
    // Convergence: whatever is still in flight is exactly the gap between
    // the kernel epoch and each core's acknowledged epoch.
    for (u32 c = 0; c < 4; ++c) {
      const auto cv = insp.core(c);
      if (cv.pending_shootdowns() == 0) {
        EXPECT_EQ(cv.shootdown_ack_epoch(), insp.tlb_epoch())
            << "core " << c << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace minova::nova
