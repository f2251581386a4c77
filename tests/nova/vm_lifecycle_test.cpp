// VM destruction semantics and churn-at-scale accounting (density
// tentpole): destroy_vm recycles every identifier and kernel object, strips
// lazy-switch/IRQ ownership so a reissued PdId cannot inherit a dead VM's
// privileges, survives destroying the *running* VM, and a create/destroy
// churn loop leaves the kernel heap exactly at its baseline — the property
// that makes thousand-VM density runs possible.
#include "nova/kernel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "null_hw_service.hpp"
#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::NullHwService;
using testing::StubGuest;

class VmLifecycleTest : public ::testing::Test {
 protected:
  VmLifecycleTest() : kernel_(platform_) {}

  ProtectionDomain* make_vm(const std::string& name, u32 prio = 1) {
    return &kernel_.create_vm(name, prio, std::make_unique<StubGuest>());
  }

  Platform platform_;
  Kernel kernel_;
};

TEST_F(VmLifecycleTest, DestroyRejectsUnknownIdsAndTheManager) {
  ProtectionDomain* vm = make_vm("vm0");
  NullHwService svc;
  ProtectionDomain& mgr = kernel_.create_manager("mgr", 6, svc);

  EXPECT_FALSE(kernel_.destroy_vm(PdId(999)));
  EXPECT_FALSE(kernel_.destroy_vm(mgr.id()));  // services are not VMs
  EXPECT_TRUE(kernel_.destroy_vm(vm->id()));
  EXPECT_EQ(kernel_.pd_by_id(PdId(0)), nullptr);
  EXPECT_FALSE(kernel_.destroy_vm(PdId(0)));  // already gone
  EXPECT_EQ(kernel_.vms_destroyed(), 1u);
}

TEST_F(VmLifecycleTest, ReissuedPdIdDoesNotInheritVfpOwnership) {
  ProtectionDomain* vm0 = make_vm("vm0");
  const PdId id = vm0->id();
  kernel_.run_for_us(100);
  GuestContext c0(kernel_, *vm0, platform_.cpu());
  c0.use_vfp();
  auto& stats = platform_.stats();
  ASSERT_EQ(stats.counter_value("kernel.trap.vfp_switch"), 1u);

  ASSERT_TRUE(kernel_.destroy_vm(id));
  ProtectionDomain* vm1 = make_vm("vm1");
  ASSERT_EQ(vm1->id(), id);  // slot recycled
  kernel_.run_for_us(100);
  // If destroy had leaked the dead VM's VFP ownership, the recycled id
  // would look like the owner and this access would be treated as free.
  GuestContext c1(kernel_, *vm1, platform_.cpu());
  c1.use_vfp();
  EXPECT_EQ(stats.counter_value("kernel.trap.vfp_switch"), 2u);
}

TEST_F(VmLifecycleTest, NextVmOnTheSlabReadsAZeroedHwDataSection) {
  ProtectionDomain* vm0 = make_vm("vm0");
  const u32 slab = vm0->vm_index;
  kernel_.run_for_us(100);
  GuestContext c0(kernel_, *vm0, platform_.cpu());
  ASSERT_TRUE(c0.write32(kGuestHwDataVa, 0xC0FFEE11u).ok);
  ASSERT_EQ(c0.read32(kGuestHwDataVa).value, 0xC0FFEE11u);

  ASSERT_TRUE(kernel_.destroy_vm(vm0->id()));
  ProtectionDomain* vm1 = make_vm("vm1");
  ASSERT_EQ(vm1->vm_index, slab);  // same physical slab
  kernel_.run_for_us(100);
  GuestContext c1(kernel_, *vm1, platform_.cpu());
  const auto r = c1.read32(kGuestHwDataVa);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0u);
}

TEST_F(VmLifecycleTest, DestroyingTheRunningVmFallsBackSafely) {
  ProtectionDomain* vm0 = make_vm("vm0", 2);
  ProtectionDomain* other = make_vm("vm1", 1);
  kernel_.run_for_us(5'000);
  ASSERT_EQ(kernel_.current(), vm0);  // higher priority monopolizes

  ASSERT_TRUE(kernel_.destroy_vm(vm0->id()));
  EXPECT_EQ(kernel_.current(), nullptr);
  // The MMU must not keep translating through the recycled tables: we are
  // back on the kernel-only context (ASID 0).
  EXPECT_EQ(platform_.cpu().mmu().asid(), 0u);
  // And the survivor takes over cleanly.
  auto* g1 = static_cast<StubGuest*>(other->guest());
  const u64 before = g1->steps;
  kernel_.run_for_us(10'000);
  EXPECT_EQ(kernel_.current(), other);
  EXPECT_GT(g1->steps, before);
}

TEST_F(VmLifecycleTest, IdentifiersRecycleLifo) {
  ProtectionDomain* a = make_vm("a");
  ProtectionDomain* b = make_vm("b");
  ProtectionDomain* c = make_vm("c");
  const PdId b_id = b->id();
  const u32 b_index = b->vm_index;
  (void)a;
  (void)c;
  ASSERT_TRUE(kernel_.destroy_vm(b_id));
  ProtectionDomain* d = make_vm("d");
  EXPECT_EQ(d->id(), b_id);
  EXPECT_EQ(d->vm_index, b_index);
  // Fresh creation continues past the recycled hole.
  ProtectionDomain* e = make_vm("e");
  EXPECT_EQ(e->id(), PdId(3));
  EXPECT_EQ(e->vm_index, 3u);
}

TEST_F(VmLifecycleTest, ChurnCyclesLeaveHeapAtBaseline) {
  constexpr u32 kBatch = 8;
  KernelHeap& heap = kernel_.heap();

  auto cycle = [&] {
    std::vector<PdId> ids;
    for (u32 i = 0; i < kBatch; ++i)
      ids.push_back(make_vm("churn" + std::to_string(i))->id());
    kernel_.run_for_us(3'000);  // let a few of them actually run
    for (PdId id : ids) ASSERT_TRUE(kernel_.destroy_vm(id));
  };

  // Cycle 1 populates the free lists; everything after must recycle.
  cycle();
  const u32 bytes_live = heap.bytes_live();
  const u32 live_blocks = heap.live_blocks();
  const u32 ctrl_live = heap.ctrl_live();
  const u32 high_water = heap.high_water();
  const u32 ctrl_high = heap.ctrl_high_water();

  for (u32 round = 0; round < 3; ++round) {
    cycle();
    EXPECT_EQ(heap.bytes_live(), bytes_live) << "round " << round;
    EXPECT_EQ(heap.live_blocks(), live_blocks) << "round " << round;
    EXPECT_EQ(heap.ctrl_live(), ctrl_live) << "round " << round;
    EXPECT_EQ(heap.high_water(), high_water) << "round " << round;
    EXPECT_EQ(heap.ctrl_high_water(), ctrl_high) << "round " << round;
  }
  EXPECT_GT(heap.recycle_count(), 0u);
  EXPECT_EQ(kernel_.vms_destroyed(), u64(4 * kBatch));
}

TEST_F(VmLifecycleTest, DestroyedVmsIrqRoutingIsReleased) {
  ProtectionDomain* vm0 = make_vm("vm0");
  NullHwService svc;
  ProtectionDomain& mgr = kernel_.create_manager("mgr", 6, svc);
  const u32 irq = mem::kIrqPl0Base;
  const PdId vm0_id = vm0->id();  // vm0 dangles after destroy_vm
  ASSERT_EQ(kernel_.svc_assign_pl_irq(mgr, vm0_id, irq), HcStatus::kSuccess);

  ASSERT_TRUE(kernel_.destroy_vm(vm0_id));
  // The reissued id must not receive the dead VM's interrupt: assigning the
  // line to the new VM succeeds (it was released, not leaked).
  ProtectionDomain* vm1 = make_vm("vm1");
  ASSERT_EQ(vm1->id(), vm0_id);
  EXPECT_EQ(kernel_.svc_assign_pl_irq(mgr, vm1->id(), irq), HcStatus::kSuccess);
}

}  // namespace
}  // namespace minova::nova
