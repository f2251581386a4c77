// Exhaustive pairwise VM-switch sweep over the vGIC mask/unmask protocol,
// plus the kernel-level forced IRQ-entry injection path.
//
// The existing vGIC tests (vgic_test.cpp) spot-check a handful of switch
// sequences over 3 VMs. Here every ordered pair (a, b) of 8 VMs — 64
// switches including self-switches — is driven from a fresh physical GIC,
// asserting the *exact* distributor enable set at each protocol point:
// after switching in `a`, after masking `a` out (GIC fully quiesced), and
// after unmasking `b` (precisely b's registered-and-enabled sources). The
// per-VM register/enable/pending patterns are deterministic functions of
// the VM index with heavy cross-VM source sharing, so shared-source
// hand-off is exercised in every pair.
#include "nova/vgic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <deque>
#include <vector>

#include "core/platform.hpp"
#include "nova/kernel.hpp"
#include "null_hw_service.hpp"
#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::NullHwService;
using testing::StubGuest;

/// The one-core masking rule: no source is live on a sibling core.
constexpr auto kNeverSkip = [](u32) { return false; };

/// One self-contained rig: 8 vGICs with index-derived interrupt patterns
/// over a fresh physical GIC. Rebuilt per pair so pairs are independent.
class PairRig {
 public:
  static constexpr u32 kNumVms = 8;
  static constexpr u32 kSourcesPerVm = 6;

  PairRig() : heap_(kKernelHeapBase + 3 * kMiB, 2 * kMiB) {
    for (u32 v = 0; v < kNumVms; ++v) {
      vgics_.emplace_back(heap_, platform_.gic());
      VGic& vg = vgics_.back();
      for (u32 k = 0; k < kSourcesPerVm; ++k) {
        const u32 irq = source(v, k);
        vg.register_irq(irq);
        if ((v + k) % 2 == 0) vg.enable(irq);
        if ((v + k) % 3 == 0) vg.set_pending(irq);  // incl. disabled sources
      }
      // A virtual-only source (>= kNumIrqs) in every record list: the
      // switch protocol must skip it at the physical GIC.
      vg.register_irq(kVtimerVirq);
      vg.enable(kVtimerVirq);
    }
  }

  /// VM v's k-th source, folded into [56, 80) so VMs share sources: v and
  /// v+3 collide on irq(v, k) == irq(v+3, k+?) etc. — every pair of VMs
  /// overlaps in at least one source.
  static u32 source(u32 v, u32 k) { return 56 + (v * 5 + k * 3) % 24; }

  void expect_exact_gic_set(const VGic* owner, const char* where) {
    auto& gic = platform_.gic();
    for (u32 irq = 0; irq < gic.num_irqs(); ++irq) {
      const bool want = owner != nullptr && owner->is_registered(irq) &&
                        owner->is_enabled(irq);
      ASSERT_EQ(gic.is_enabled(irq), want)
          << where << ": irq " << irq << " enable state wrong";
    }
  }

  std::vector<std::array<bool, VGic::kMaxEntries>> snapshot_pending() const {
    std::vector<std::array<bool, VGic::kMaxEntries>> out(kNumVms);
    for (u32 v = 0; v < kNumVms; ++v)
      for (u32 s = 0; s < VGic::kMaxEntries; ++s)
        out[v][s] = vgics_[v].records()[s].pending;
    return out;
  }

  Platform platform_;
  KernelHeap heap_;
  std::deque<VGic> vgics_;
};

TEST(VGicPairwiseSweep, EveryOrderedSwitchPairYieldsExactMaskUnmaskSets) {
  for (u32 a = 0; a < PairRig::kNumVms; ++a) {
    for (u32 b = 0; b < PairRig::kNumVms; ++b) {
      SCOPED_TRACE(::testing::Message() << "pair " << a << " -> " << b);
      PairRig rig;

      // Switch `a` in: exactly a's registered-and-enabled sources unmask.
      rig.vgics_[a].unmask_enabled_physical(rig.platform_.cpu());
      ASSERT_NO_FATAL_FAILURE(
          rig.expect_exact_gic_set(&rig.vgics_[a], "after switch-in"));

      const auto pend_before = rig.snapshot_pending();

      // The switch protocol, first half: mask the outgoing VM. No other VM
      // ever ran on this rig, so the distributor must be fully quiesced —
      // including sources a shares with b.
      rig.vgics_[a].mask_all_physical(rig.platform_.cpu(), kNeverSkip);
      ASSERT_NO_FATAL_FAILURE(
          rig.expect_exact_gic_set(nullptr, "after mask-out"));

      // Second half: unmask the incoming VM. Exactly b's enabled set —
      // shared sources a enabled but b didn't must stay masked, and
      // self-switches (a == b) must restore a's own set unchanged.
      rig.vgics_[b].unmask_enabled_physical(rig.platform_.cpu());
      ASSERT_NO_FATAL_FAILURE(
          rig.expect_exact_gic_set(&rig.vgics_[b], "after unmask-in"));

      // The switch moves *mask* state only: no VM's latched pending bits
      // may be consumed, dropped, or invented by a switch (§IV.D).
      EXPECT_EQ(rig.snapshot_pending(), pend_before);
    }
  }
}

TEST(VGicPairwiseSweep, VirtualOnlySourcesNeverReachTheDistributor) {
  // Every rig VM has kVtimerVirq (>= kNumIrqs) registered and enabled; the
  // full pairwise sweep above would CHECK-abort inside the GIC on any
  // out-of-range access, but assert the bounds here explicitly too.
  PairRig rig;
  ASSERT_GE(kVtimerVirq, rig.platform_.gic().num_irqs());
  for (u32 v = 0; v < PairRig::kNumVms; ++v) {
    rig.vgics_[v].unmask_enabled_physical(rig.platform_.cpu());
    rig.vgics_[v].mask_all_physical(rig.platform_.cpu(), kNeverSkip);
  }
}

// ---- kernel-level forced IRQ-entry injection --------------------------------

TEST(VGicKernelInjection, PhysicalPlIrqForcesOwnersIrqEntryOnly) {
  Platform platform;
  Kernel kernel(platform);

  // vm0 outranks vm1 but yields immediately, so both get CPU time.
  auto g0 = std::make_unique<StubGuest>(
      [](GuestContext&, cycles_t) { return StepExit::kYield; });
  StubGuest* guest0 = g0.get();
  auto g1 = std::make_unique<StubGuest>();
  StubGuest* guest1 = g1.get();
  ProtectionDomain& vm0 = kernel.create_vm("vm0", 2, std::move(g0));
  ProtectionDomain& vm1 = kernel.create_vm("vm1", 1, std::move(g1));
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);

  const u32 irq = mem::kIrqPl0Base;
  ASSERT_EQ(kernel.svc_assign_pl_irq(mgr, vm1.id(), irq), HcStatus::kSuccess);
  kernel.run_for_us(200);

  // Device asserts the line while vm1 has no IRQ entry registered yet: the
  // kernel routes it into vm1's record list, but must not force an entry
  // into a VM that never told the kernel where its handler lives.
  platform.gic().raise(irq);
  kernel.run_for_us(1000);
  EXPECT_TRUE(guest1->virqs.empty());
  EXPECT_TRUE(vm1.vgic().any_deliverable());  // latched, not lost

  // Entry registered: the latched vIRQ is force-injected the next time vm1
  // is dispatched — and only into the owner, never the other VM.
  vm1.vgic().set_entry(0x9000);
  kernel.run_for_us(2000);
  ASSERT_FALSE(guest1->virqs.empty());
  EXPECT_EQ(guest1->virqs.front(), irq);
  EXPECT_FALSE(vm1.vgic().any_deliverable());  // delivered exactly once
  EXPECT_TRUE(guest0->virqs.empty());

  // A second assertion while vm1 *is* runnable goes straight through.
  const std::size_t delivered = guest1->virqs.size();
  platform.gic().raise(irq);
  kernel.run_for_us(2000);
  EXPECT_GT(guest1->virqs.size(), delivered);
  (void)vm0;
}

}  // namespace
}  // namespace minova::nova
