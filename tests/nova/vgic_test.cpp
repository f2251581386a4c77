#include "nova/vgic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/platform.hpp"
#include "nova/kernel.hpp"
#include "stub_guest.hpp"
#include "util/rng.hpp"

namespace minova::nova {
namespace {

/// The one-core masking rule: no source is live on a sibling core.
constexpr auto kNeverSkip = [](u32) { return false; };

class VGicTest : public ::testing::Test {
 protected:
  VGicTest()
      : heap_(kKernelHeapBase + 3 * kMiB, 2 * kMiB),
        vgic_(heap_, platform_.gic()) {}

  Platform platform_;
  KernelHeap heap_;
  VGic vgic_;
};

TEST_F(VGicTest, RegisterAndEnable) {
  EXPECT_TRUE(vgic_.register_irq(61));
  EXPECT_TRUE(vgic_.is_registered(61));
  EXPECT_FALSE(vgic_.is_enabled(61));
  vgic_.enable(61);
  EXPECT_TRUE(vgic_.is_enabled(61));
  vgic_.disable(61);
  EXPECT_FALSE(vgic_.is_enabled(61));
}

TEST_F(VGicTest, RegisterIsIdempotent) {
  EXPECT_TRUE(vgic_.register_irq(61));
  EXPECT_TRUE(vgic_.register_irq(61));
  EXPECT_EQ(vgic_.registered_count(), 1u);
}

TEST_F(VGicTest, RecordListCapacity) {
  for (u32 i = 1; i <= VGic::kMaxEntries; ++i)
    EXPECT_TRUE(vgic_.register_irq(60 + i));
  EXPECT_FALSE(vgic_.register_irq(99));  // list full (Fig. 2: fixed table)
}

TEST_F(VGicTest, PendingDeliveredOnlyWhenEnabled) {
  vgic_.register_irq(61);
  vgic_.set_pending(61);
  u32 irq = 0;
  EXPECT_FALSE(vgic_.take_pending(irq));  // disabled: stays latched
  vgic_.enable(61);
  EXPECT_TRUE(vgic_.take_pending(irq));
  EXPECT_EQ(irq, 61u);
  EXPECT_FALSE(vgic_.take_pending(irq));  // consumed
}

TEST_F(VGicTest, PendingSurvivesWhileVmDescheduled) {
  // §IV.D: "the IRQ state remains the same until the next time the VM is
  // scheduled" — pending is level state, not lost by queries.
  vgic_.register_irq(61);
  vgic_.enable(61);
  vgic_.set_pending(61);
  EXPECT_TRUE(vgic_.any_deliverable());
  EXPECT_TRUE(vgic_.any_deliverable());  // still there
}

TEST_F(VGicTest, SetPendingOnUnregisteredIrqIsDropped) {
  vgic_.set_pending(77);
  EXPECT_FALSE(vgic_.any_deliverable());
}

TEST_F(VGicTest, PhysicalMaskUnmaskFollowsRecordList) {
  auto& gic = platform_.gic();
  auto& core = platform_.cpu();
  vgic_.register_irq(61);
  vgic_.register_irq(62);
  vgic_.enable(61);  // 62 stays virtually disabled
  gic.enable_irq(61);
  gic.enable_irq(62);

  vgic_.mask_all_physical(core, kNeverSkip);  // VM switched out
  EXPECT_FALSE(gic.is_enabled(61));
  EXPECT_FALSE(gic.is_enabled(62));

  vgic_.unmask_enabled_physical(core);  // VM switched in
  EXPECT_TRUE(gic.is_enabled(61));
  EXPECT_FALSE(gic.is_enabled(62));  // only *enabled* sources unmask
}

TEST_F(VGicTest, VirtualOnlyIrqsNeverTouchPhysicalGic) {
  auto& core = platform_.cpu();
  vgic_.register_irq(kVtimerVirq);  // 120 >= kNumIrqs(96)
  vgic_.enable(kVtimerVirq);
  // Would abort with a bounds CHECK inside the GIC if it were forwarded.
  vgic_.mask_all_physical(core, kNeverSkip);
  vgic_.unmask_enabled_physical(core);
  vgic_.set_pending(kVtimerVirq);
  u32 irq = 0;
  EXPECT_TRUE(vgic_.take_pending(irq));
  EXPECT_EQ(irq, kVtimerVirq);
}

TEST_F(VGicTest, EntryAddressStored) {
  EXPECT_EQ(vgic_.entry(), 0u);
  vgic_.set_entry(0x8000);
  EXPECT_EQ(vgic_.entry(), 0x8000u);
}

TEST_F(VGicTest, MaskingCostsCycles) {
  auto& core = platform_.cpu();
  vgic_.register_irq(61);
  vgic_.enable(61);
  const cycles_t t0 = platform_.clock().now();
  vgic_.mask_all_physical(core, kNeverSkip);
  EXPECT_GT(platform_.clock().now(), t0);  // device access + list walk
}

// ---- VM-switch invariant (§III.B / §IV.D) -----------------------------------

/// Three VMs' vGICs over one physical GIC, with overlapping record lists.
class VGicSwitchTest : public ::testing::Test {
 protected:
  static constexpr u32 kNumVms = 3;
  // Per-VM registered sources; 64/65 are deliberately shared between VMs.
  static constexpr std::array<std::array<u32, 3>, kNumVms> kSources{{
      {61, 62, 64},
      {63, 64, 65},
      {65, 66, 67},
  }};

  VGicSwitchTest() : heap_(kKernelHeapBase + 3 * kMiB, 2 * kMiB) {
    for (u32 v = 0; v < kNumVms; ++v) {
      vgics_.emplace_back(heap_, platform_.gic());
      for (u32 irq : kSources[v]) vgics_[v].register_irq(irq);
    }
  }

  /// The kernel's VM-switch sequence: mask the outgoing VM's sources, then
  /// unmask the incoming VM's enabled sources (vgic.hpp).
  void switch_vms(u32 from, u32 to) {
    vgics_[from].mask_all_physical(platform_.cpu(), kNeverSkip);
    vgics_[to].unmask_enabled_physical(platform_.cpu());
  }

  /// Invariant: after switching to `vm`, a physical source is unmasked
  /// exactly when the incoming VM has it registered AND virtually enabled.
  void check_invariant(u32 vm) {
    for (u32 irq = 60; irq < 70; ++irq) {
      const bool want =
          vgics_[vm].is_registered(irq) && vgics_[vm].is_enabled(irq);
      EXPECT_EQ(platform_.gic().is_enabled(irq), want)
          << "irq " << irq << " after switch to vm" << vm;
    }
  }

  Platform platform_;
  KernelHeap heap_;
  std::deque<VGic> vgics_;
};

TEST_F(VGicSwitchTest, ExactlyIncomingVmsEnabledIrqsUnmaskedAfterSwitch) {
  vgics_[0].enable(61);
  vgics_[0].enable(64);
  vgics_[1].enable(64);  // shared source, enabled by both VM0 and VM1
  vgics_[2].enable(66);
  // VM2 registers 65 but leaves it disabled; VM1 enables it.
  vgics_[1].enable(65);

  u32 current = 0;
  vgics_[0].unmask_enabled_physical(platform_.cpu());
  check_invariant(0);

  for (u32 next : {1u, 2u, 0u, 2u, 1u, 0u}) {
    switch_vms(current, next);
    current = next;
    check_invariant(current);
  }
}

TEST_F(VGicSwitchTest, InvariantHoldsOverRandomSwitchAndEnableSequences) {
  util::Xoshiro256 rng(0xF00Du);
  u32 current = 0;
  vgics_[0].unmask_enabled_physical(platform_.cpu());

  for (int step = 0; step < 400; ++step) {
    // Random virtual enable/disable on a *descheduled* VM (the hypercall
    // path covers the current VM: it pokes the physical GIC directly).
    const u32 vm = 1 + rng.next_below(kNumVms - 1);
    const u32 victim = (current + vm) % kNumVms;
    const u32 irq = kSources[victim][rng.next_below(3)];
    if (rng.next_bool(0.5))
      vgics_[victim].enable(irq);
    else
      vgics_[victim].disable(irq);

    // Random switch target (possibly a self-switch).
    const u32 next = rng.next_below(kNumVms);
    switch_vms(current, next);
    current = next;
    check_invariant(current);
  }
}

TEST_F(VGicSwitchTest, InjectionWhileDescheduledStaysPendingUntilScheduled) {
  // §IV.D: an IRQ injected while its VM is switched out is latched in the
  // record list and delivered when the VM runs again — never dropped, never
  // delivered to the VM that happened to be current.
  vgics_[0].enable(61);
  vgics_[1].enable(63);
  u32 current = 0;
  vgics_[0].unmask_enabled_physical(platform_.cpu());

  // VM1 is descheduled; a device latches its IRQ.
  vgics_[1].set_pending(63);
  u32 irq = 0;
  EXPECT_FALSE(vgics_[0].take_pending(irq));  // not visible to current VM

  // Survives an arbitrary switch sequence that never runs VM1.
  for (u32 next : {2u, 0u, 2u, 0u}) {
    switch_vms(current, next);
    current = next;
    EXPECT_TRUE(vgics_[1].any_deliverable());
    EXPECT_FALSE(vgics_[current].take_pending(irq));
  }

  // VM1 finally scheduled: exactly its pending IRQ is delivered, once.
  switch_vms(current, 1);
  EXPECT_TRUE(vgics_[1].take_pending(irq));
  EXPECT_EQ(irq, 63u);
  EXPECT_FALSE(vgics_[1].take_pending(irq));
}

TEST_F(VGicSwitchTest, PendingOnDisabledSourceSurvivesSwitchesUntilEnabled) {
  // Injection on a virtually disabled source: latched, masked from
  // delivery, and released by a later enable — across VM switches.
  vgics_[1].set_pending(63);  // 63 registered but disabled
  vgics_[0].unmask_enabled_physical(platform_.cpu());
  switch_vms(0, 1);

  u32 irq = 0;
  EXPECT_FALSE(vgics_[1].take_pending(irq));  // disabled: stays latched
  switch_vms(1, 2);
  switch_vms(2, 1);
  vgics_[1].enable(63);
  EXPECT_TRUE(vgics_[1].take_pending(irq));
  EXPECT_EQ(irq, 63u);
}

// ---- the record-list walk against the per-slot loop -------------------------

/// A booted kernel's core (MMU on, the kernel's global mapping live) and a
/// vGIC on a heap of its own: the list reads are the kernel-VA accesses
/// vm_switch makes.
struct ListRig {
  static constexpr paddr_t kHeapBase = kKernelHeapBase + 3 * kMiB;

  ListRig() : kernel(platform), heap(kHeapBase, 2 * kMiB) {
    kernel.create_vm("vm", 1, std::make_unique<testing::StubGuest>());
    kernel.run_for_us(100);
    vgic.emplace(heap, platform.gic());
  }

  Platform platform;
  Kernel kernel;
  KernelHeap heap;
  std::optional<VGic> vgic;
};

TEST(VGicListWalk, MaskAndUnmaskChargeThePerSlotLoop) {
  // Rig A runs the vGIC; rig B runs the per-slot loop the list walk
  // replaced (one vread32 per occupied slot) and the same GIC writes. The
  // passes run cold (after a cache flush), then warm, in both privilege
  // modes: from user mode every read takes the privileged-only fault.
  const paddr_t area = KernelHeap(ListRig::kHeapBase, 2 * kMiB)
                           .alloc(VGic::kMaxEntries * 8, 64);
  for (const u32 n : {0u, 1u, 5u, 16u}) {
    ListRig a, b;
    for (u32 i = 0; i < n; ++i) {
      for (ListRig* r : {&a, &b}) {
        ASSERT_TRUE(r->vgic->register_irq(61 + i));
        if (i % 2 == 0) r->vgic->enable(61 + i);
      }
    }
    const auto ref_walk = [&] {
      for (u32 i = 0; i < VGic::kMaxEntries; ++i)
        if (b.vgic->records()[i].irq != 0)
          (void)b.platform.cpu().vread32(kernel_va(area) + i * 8);
    };
    const auto& l1d = a.platform.cpu().caches().l1d().stats();
    for (const cpu::Mode mode : {cpu::Mode::kSvc, cpu::Mode::kUsr}) {
      for (ListRig* r : {&a, &b}) {
        r->platform.cpu().cpsr().mode = mode;
        r->platform.clock().advance(r->platform.cpu().caches().flush_all());
      }
      const u64 l1d_before = l1d.hits + l1d.misses;
      for (int pass = 0; pass < 3; ++pass) {
        a.vgic->mask_all_physical(a.platform.cpu(), kNeverSkip);
        a.vgic->unmask_enabled_physical(a.platform.cpu());
        ref_walk();
        for (const auto& r : b.vgic->records()) {
          if (r.irq == 0) continue;
          b.platform.gic().disable_irq(r.irq);
          b.platform.cpu().spend(b.platform.cpu().caches().access_device());
        }
        ref_walk();
        for (const auto& r : b.vgic->records()) {
          if (r.irq == 0 || !r.enabled) continue;
          b.platform.gic().enable_irq(r.irq);
          b.platform.cpu().spend(b.platform.cpu().caches().access_device());
        }
        cpu::Core& ca = a.platform.cpu();
        cpu::Core& cb = b.platform.cpu();
        ASSERT_EQ(a.platform.clock().now(), b.platform.clock().now())
            << n << " records, pass " << pass;
        EXPECT_EQ(ca.caches().l1d().stats().hits,
                  cb.caches().l1d().stats().hits);
        EXPECT_EQ(ca.caches().l1d().stats().misses,
                  cb.caches().l1d().stats().misses);
        EXPECT_EQ(ca.caches().l2().stats().hits, cb.caches().l2().stats().hits);
        EXPECT_EQ(ca.tlb().stats().hits, cb.tlb().stats().hits);
        EXPECT_EQ(ca.tlb().stats().misses, cb.tlb().stats().misses);
        EXPECT_EQ(ca.mmu().micro_stats().hits, cb.mmu().micro_stats().hits);
        EXPECT_EQ(ca.mmu().micro_stats().misses,
                  cb.mmu().micro_stats().misses);
        for (u32 i = 0; i < n; ++i)
          EXPECT_EQ(a.platform.gic().is_enabled(61 + i),
                    b.platform.gic().is_enabled(61 + i));
      }
      // Privileged reads reach kernel RAM; user-mode ones all fault.
      EXPECT_EQ(l1d.hits + l1d.misses - l1d_before,
                mode == cpu::Mode::kSvc ? 6 * n : 0);
    }
    EXPECT_EQ(a.vgic->registered_count(), n);
  }
}

}  // namespace
}  // namespace minova::nova
