// Cross-core TLB shootdown (DESIGN.md §13): the IPI protocol's completion
// accounting, the differential that an `svc_unmap_from` issued while a VM
// runs on another core invalidates that core's private micro-TLB bank
// before any subsequent translate, and the unicore guard (no epochs, no
// IPIs, bit-identical to the seed).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "nova/inspector.hpp"
#include "nova/kernel.hpp"
#include "nova/kmem.hpp"
#include "null_hw_service.hpp"
#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::NullHwService;
using testing::StubGuest;

constexpr vaddr_t kProbeVa = 0x4000'0000u;

// The reader guest probes kProbeVa once per step; the host flips `phase`
// between runs to bracket the unmap. Phase 0 just burns cycles (before the
// mapping exists a probe would take a spurious data abort).
struct ProbeState {
  int phase = 0;
  u64 ok_mapped = 0;    // successful reads while the page is mapped
  u64 ok_stale = 0;     // reads that still succeed AFTER the unmap: must be 0
  u64 fail_stale = 0;   // faulting reads after the unmap
};

StubGuest::StepFn probe_step(ProbeState& st) {
  return [&st](GuestContext& ctx, cycles_t budget) {
    if (st.phase == 1) {
      if (ctx.read32(kProbeVa).ok)
        ++st.ok_mapped;
    } else if (st.phase == 2) {
      if (ctx.read32(kProbeVa).ok)
        ++st.ok_stale;
      else
        ++st.fail_stale;
    }
    ctx.spend_insns(budget / 4 + 1);
    return StepExit::kBudget;
  };
}

StubGuest::StepFn burn_step() {
  return [](GuestContext& ctx, cycles_t budget) {
    ctx.spend_insns(budget / 2 + 1);
    return StepExit::kBudget;
  };
}

TEST(SmpShootdownTest, CrossCoreUnmapInvalidatesRemoteUtlbBeforeNextRead) {
  Platform platform;
  KernelConfig cfg;
  cfg.num_cores = 2;
  cfg.quantum_ms = 1.0;
  Kernel kernel(platform, cfg);
  KernelInspector insp(kernel);
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);
  kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(burn_step()));
  ProbeState st;
  ProtectionDomain& vm1 =
      kernel.create_vm("vm1", 1, std::make_unique<StubGuest>(probe_step(st)));
  ASSERT_EQ(vm1.run_core, 1u);

  kernel.run_for_us(5'000);  // both cores boot their guests
  const paddr_t pa = vm_phys_base(vm1.vm_index) + 0x1000u;
  ASSERT_EQ(kernel.svc_map_into(mgr, vm1.id(), kProbeVa, pa),
            HcStatus::kSuccess);
  st.phase = 1;
  kernel.run_for_us(10'000);  // vm1 probes through its core's uTLB bank
  ASSERT_GT(st.ok_mapped, 0u) << "mapping never became readable";

  // Snapshot the protocol state, then unmap from the host side. The unmap
  // executes on whichever core is active; the *other* core must learn about
  // it through a kIpiTlbShootdown it has not yet drained.
  const u32 initiator = kernel.active_core();
  const u32 remote = 1u - initiator;
  const u64 epoch_before = kernel.tlb_epoch();
  const u64 sent_before = kernel.shootdowns_sent();
  const u64 remote_gen_before = insp.core(remote).utlb_generation();
  const u64 remote_acked_before = insp.core(remote).shootdowns_acked();

  st.phase = 2;
  ASSERT_EQ(kernel.svc_unmap_from(mgr, vm1.id(), kProbeVa),
            HcStatus::kSuccess);

  // Initiator: epoch bumped, own bank flushed, self-acked. Remote: exactly
  // one shootdown IPI parked in its mailbox, bank still untouched.
  EXPECT_EQ(kernel.tlb_epoch(), epoch_before + 1);
  EXPECT_EQ(kernel.shootdowns_sent(), sent_before + 1);
  EXPECT_EQ(insp.core(initiator).shootdown_ack_epoch(), kernel.tlb_epoch());
  EXPECT_EQ(insp.core(remote).pending_shootdowns(), 1u);
  EXPECT_EQ(insp.core(remote).utlb_generation(), remote_gen_before);
  EXPECT_LT(insp.core(remote).shootdown_ack_epoch(), kernel.tlb_epoch());

  kernel.run_for_us(10'000);  // remote core drains the IPI before dispatch

  EXPECT_EQ(insp.core(remote).pending_shootdowns(), 0u);
  EXPECT_EQ(insp.core(remote).shootdown_ack_epoch(), kernel.tlb_epoch());
  EXPECT_EQ(insp.core(remote).shootdowns_acked(), remote_acked_before + 1);
  EXPECT_GT(insp.core(remote).utlb_generation(), remote_gen_before);
  // The differential itself: not one translate of the unmapped page
  // succeeded after the unmap, from either core's bank.
  EXPECT_GT(st.fail_stale, 0u) << "probe guest never ran after the unmap";
  EXPECT_EQ(st.ok_stale, 0u) << "stale uTLB entry survived the shootdown";
  u64 acked = 0;
  for (u32 c = 0; c < insp.num_cores(); ++c)
    acked += insp.core(c).shootdowns_acked();
  EXPECT_GT(acked, 0u);
}

TEST(SmpShootdownTest, RepeatedUnmapsKeepCompletionAccountingBalanced) {
  Platform platform;
  KernelConfig cfg;
  cfg.num_cores = 4;
  cfg.quantum_ms = 1.0;
  Kernel kernel(platform, cfg);
  KernelInspector insp(kernel);
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);
  std::vector<ProtectionDomain*> vms;
  for (u32 i = 0; i < 4; ++i)
    vms.push_back(&kernel.create_vm("vm" + std::to_string(i), 1,
                                    std::make_unique<StubGuest>(burn_step())));
  kernel.run_for_us(5'000);

  for (u32 round = 0; round < 8; ++round) {
    for (u32 i = 0; i < 4; ++i) {
      const vaddr_t va = kProbeVa + round * 0x1000u;
      const paddr_t pa = vm_phys_base(vms[i]->vm_index) + 0x2000u;
      ASSERT_EQ(kernel.svc_map_into(mgr, vms[i]->id(), va, pa),
                HcStatus::kSuccess);
      ASSERT_EQ(kernel.svc_unmap_from(mgr, vms[i]->id(), va),
                HcStatus::kSuccess);
    }
    kernel.run_for_us(2'000);  // interleave draining with fresh broadcasts
  }
  kernel.run_for_us(10'000);  // quiesce: every mailbox drains

  // Both svc_map_into and svc_unmap_from broadcast (TLBIMVAIS semantics):
  // 8 rounds x 4 VMs x 2 operations, each reaching the 3 other cores.
  constexpr u64 kBroadcasts = 8 * 4 * 2;
  EXPECT_EQ(kernel.shootdowns_sent(), kBroadcasts * 3);
  u64 acked = 0;
  for (u32 c = 0; c < insp.num_cores(); ++c) {
    EXPECT_EQ(insp.core(c).pending_shootdowns(), 0u) << "core " << c;
    EXPECT_EQ(insp.core(c).shootdown_ack_epoch(), kernel.tlb_epoch())
        << "core " << c;
    acked += insp.core(c).shootdowns_acked();
  }
  // Every cross-core IPI was acknowledged by a drain on its target (the
  // initiator's self-ack advances its epoch but is not a counted drain).
  EXPECT_EQ(acked, kernel.shootdowns_sent());
  EXPECT_EQ(kernel.tlb_epoch(), kBroadcasts);
}

TEST(SmpShootdownTest, UnicoreUnmapNeverTouchesTheProtocol) {
  Platform platform;
  Kernel kernel(platform);
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);
  ProbeState st;
  ProtectionDomain& vm0 =
      kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(probe_step(st)));
  kernel.run_for_us(5'000);
  const paddr_t pa = vm_phys_base(vm0.vm_index) + 0x1000u;
  ASSERT_EQ(kernel.svc_map_into(mgr, vm0.id(), kProbeVa, pa),
            HcStatus::kSuccess);
  st.phase = 1;
  kernel.run_for_us(5'000);
  ASSERT_GT(st.ok_mapped, 0u);
  st.phase = 2;
  ASSERT_EQ(kernel.svc_unmap_from(mgr, vm0.id(), kProbeVa),
            HcStatus::kSuccess);
  kernel.run_for_us(5'000);
  // The unmap still takes effect locally...
  EXPECT_GT(st.fail_stale, 0u);
  EXPECT_EQ(st.ok_stale, 0u);
  // ...but the SMP machinery stays at its seed-identical resting state.
  EXPECT_EQ(kernel.tlb_epoch(), 0u);
  EXPECT_EQ(kernel.shootdowns_sent(), 0u);
  EXPECT_EQ(platform.stats().counter_value("kernel.ipi.sent"), 0u);
}

}  // namespace
}  // namespace minova::nova
