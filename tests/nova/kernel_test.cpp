// Kernel-level behaviour: hypercall gate, scheduling with quanta, vtimer
// injection, guest privilege switching (Table II), memory hypercalls,
// inter-VM communication and lazy VFP.
#include "nova/kernel.hpp"

#include <gtest/gtest.h>

#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::StubGuest;

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_(platform_) {}

  /// Create a VM around a StubGuest and return both.
  std::pair<ProtectionDomain*, StubGuest*> make_vm(
      const std::string& name, u32 prio, StubGuest::StepFn step = {}) {
    auto guest = std::make_unique<StubGuest>(std::move(step));
    StubGuest* raw = guest.get();
    auto& pd = kernel_.create_vm(name, prio, std::move(guest));
    return {&pd, raw};
  }

  Platform platform_;
  Kernel kernel_;
};

TEST_F(KernelTest, BootEnablesMmuAndTick) {
  EXPECT_TRUE(platform_.cpu().mmu().enabled());
  EXPECT_TRUE(platform_.private_timer().running());
  EXPECT_TRUE(platform_.gic().is_enabled(mem::kIrqPrivateTimer));
}

TEST_F(KernelTest, BitstreamsStagedForAllTasks) {
  for (hwtask::TaskId id : platform_.task_library().ids()) {
    const auto bits = kernel_.find_bitstream(id);
    EXPECT_NE(bits.pa, 0u);
    EXPECT_EQ(bits.len, platform_.task_library().find(id)->bitstream_bytes);
    // The staged header names the task.
    EXPECT_EQ(platform_.dram().read32(bits.pa), id);
  }
}

TEST_F(KernelTest, GuestBootsAndSteps) {
  auto [pd, guest] = make_vm("vm0", 1);
  kernel_.run_for_us(5000);
  EXPECT_TRUE(guest->booted);
  EXPECT_GT(guest->steps, 0u);
}

TEST_F(KernelTest, EqualPriorityGuestsShareCpuFairly) {
  // §III.D: same quantum, round-robin -> equal share over full rotations.
  cycles_t ran[2] = {0, 0};
  auto burn = [](GuestContext& ctx, cycles_t budget) {
    ctx.spend_insns(budget);
    return StepExit::kBudget;
  };
  auto [pd0, g0] = make_vm("vm0", 1, burn);
  auto [pd1, g1] = make_vm("vm1", 1, burn);
  (void)pd0;
  (void)pd1;
  (void)ran;
  kernel_.run_for_us(200'000);  // ~3 full 33 ms rotations each
  const double ratio = double(g0->steps) / double(g1->steps);
  EXPECT_NEAR(ratio, 1.0, 0.2);
}

TEST_F(KernelTest, HigherPriorityGuestMonopolizesCpu) {
  auto burn = [](GuestContext& ctx, cycles_t budget) {
    ctx.spend_insns(budget);
    return StepExit::kBudget;
  };
  auto [pd0, low] = make_vm("low", 1, burn);
  auto [pd1, high] = make_vm("high", 3, burn);
  (void)pd0;
  (void)pd1;
  kernel_.run_for_us(50'000);
  EXPECT_GT(high->steps, 0u);
  EXPECT_EQ(low->steps, 0u);  // never scheduled while high is runnable
}

TEST_F(KernelTest, VtimerInjectsPeriodically) {
  auto [pd, guest] = make_vm("vm0", 1, [](GuestContext& ctx, cycles_t) {
    ctx.spend_insns(5000);
    return StepExit::kYield;  // mostly idle: only tick makes it run
  });
  (void)pd;
  // Register IRQ entry + 1 ms vtimer on first boot via the gate.
  kernel_.run_for_us(100);  // boot
  GuestContext ctx(kernel_, *kernel_.pd_by_id(0), platform_.cpu());
  ASSERT_TRUE(ctx.hypercall(Hypercall::kIrqSetEntry, 0, 0x8000).ok());
  ASSERT_TRUE(ctx.hypercall(Hypercall::kVtimerConfig, 0, 1000).ok());
  kernel_.run_for_us(20'000);
  // ~20 ticks expected; allow slack for boot/step quantization.
  const auto ticks = std::count(guest->virqs.begin(), guest->virqs.end(),
                                kVtimerVirq);
  EXPECT_GE(ticks, 15);
  EXPECT_LE(ticks, 25);
}

TEST_F(KernelTest, HypercallGateCostsTime) {
  auto [pd, guest] = make_vm("vm0", 1);
  (void)guest;
  kernel_.run_for_us(100);
  GuestContext ctx(kernel_, *pd, platform_.cpu());
  const cycles_t t0 = platform_.clock().now();
  ASSERT_TRUE(ctx.hypercall(Hypercall::kRegWrite, 0, 3, 0xAB).ok());
  const cycles_t cost = platform_.clock().now() - t0;
  EXPECT_GT(cost, 50u);    // trap + dispatch + return
  EXPECT_LT(cost, 10000u); // but far from a VM switch
  const auto rd = ctx.hypercall(Hypercall::kRegRead, 0, 3);
  EXPECT_TRUE(rd.ok());
  EXPECT_EQ(rd.r1, 0xABu);
}

TEST_F(KernelTest, InvalidSysregIndexRejected) {
  auto [pd, guest] = make_vm("vm0", 1);
  (void)guest;
  kernel_.run_for_us(100);
  GuestContext ctx(kernel_, *pd, platform_.cpu());
  EXPECT_EQ(ctx.hypercall(Hypercall::kRegRead, 0, 99).status,
            HcStatus::kInvalidArg);
}

TEST_F(KernelTest, SetGuestModeFlipsDacrLive) {
  auto [pd, guest] = make_vm("vm0", 1);
  (void)guest;
  kernel_.run_for_us(100);  // guest is current
  ASSERT_EQ(kernel_.current(), pd);
  GuestContext ctx(kernel_, *pd, platform_.cpu());

  // Guest kernel mode: guest-kernel pages accessible from PL0.
  ASSERT_TRUE(ctx.hypercall(Hypercall::kSetGuestMode, 1).ok());
  platform_.cpu().cpsr().mode = cpu::Mode::kUsr;
  EXPECT_TRUE(platform_.cpu().vread32(kGuestKernelVa + 0x100).ok);

  // Drop to guest user: same access now takes a domain fault (Table II).
  ASSERT_TRUE(ctx.hypercall(Hypercall::kSetGuestMode, 0).ok());
  platform_.cpu().cpsr().mode = cpu::Mode::kUsr;
  const auto r = platform_.cpu().vread32(kGuestKernelVa + 0x100);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.type, mmu::FaultType::kDomain);
  // Guest-user pages remain accessible.
  EXPECT_TRUE(platform_.cpu().vread32(kGuestUserVa + 0x100).ok);
}

TEST_F(KernelTest, GuestCannotTouchKernelOrOtherVm) {
  auto [pd0, g0] = make_vm("vm0", 1);
  make_vm("vm1", 1);
  (void)g0;
  kernel_.run_for_us(100);
  ASSERT_EQ(kernel_.current(), pd0);
  platform_.cpu().cpsr().mode = cpu::Mode::kUsr;
  // Kernel window: permission fault (PL1-only pages).
  const auto k = platform_.cpu().vread32(kKernelVa + 0x100);
  EXPECT_FALSE(k.ok);
  EXPECT_EQ(k.fault.type, mmu::FaultType::kPermission);
  // Unmapped space: translation fault; VM1's memory is simply not mapped.
  const auto other = platform_.cpu().vread32(0x2000'0000u);
  EXPECT_FALSE(other.ok);
}

TEST_F(KernelTest, MapInsertSelfExtendsGuestSpace) {
  auto [pd, guest] = make_vm("vm0", 1);
  (void)guest;
  kernel_.run_for_us(100);
  GuestContext ctx(kernel_, *pd, platform_.cpu());
  const vaddr_t va = 0x00D0'0000u;  // beyond the premapped image
  EXPECT_FALSE(platform_.cpu().vread32(va).ok);
  // Map slab offset 0xE00000 at the new VA (r0=self sentinel).
  ASSERT_TRUE(ctx.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, va,
                            0x00E0'0000u, 0).ok());
  EXPECT_TRUE(platform_.cpu().vwrite32(va, 123).ok);
  EXPECT_EQ(platform_.dram().read32(vm_phys_base(0) + 0x00E0'0000u), 123u);
  // And remove it again.
  ASSERT_TRUE(ctx.hypercall(Hypercall::kMapRemove, 0xFFFF'FFFFu, va).ok());
  EXPECT_FALSE(platform_.cpu().vread32(va).ok);
}

TEST_F(KernelTest, MapInsertDeniedOutsideOwnSlabOrOtherVm) {
  auto [pd, guest] = make_vm("vm0", 1);
  auto [pd1, g1] = make_vm("vm1", 1);
  (void)guest;
  (void)g1;
  kernel_.run_for_us(100);
  GuestContext ctx(kernel_, *pd, platform_.cpu());
  // Offset beyond the 16 MB slab.
  EXPECT_EQ(ctx.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, 0x00D0'0000u,
                          kVmPhysSize, 0).status,
            HcStatus::kDenied);
  // Target another PD without the map-other capability.
  EXPECT_EQ(ctx.hypercall(Hypercall::kMapInsert, pd1->id(), 0x00D0'0000u, 0,
                          0).status,
            HcStatus::kDenied);
  // Kernel VA range is off limits entirely.
  EXPECT_EQ(ctx.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, kKernelVa,
                          0, 0).status,
            HcStatus::kInvalidArg);
}

TEST_F(KernelTest, UartWriteReachesConsole) {
  auto [pd, guest] = make_vm("vm0", 1);
  (void)guest;
  kernel_.run_for_us(100);
  GuestContext ctx(kernel_, *pd, platform_.cpu());
  for (char c : std::string("ok"))
    ASSERT_TRUE(ctx.hypercall(Hypercall::kUartWrite, 0, u32(c)).ok());
  kernel_.run_for_us(100);  // the FIFO drains one character per ~8.7 us
  EXPECT_EQ(platform_.uart().transmitted(), "ok");
}

TEST_F(KernelTest, SdTransferRoundTrip) {
  auto [pd, guest] = make_vm("vm0", 1);
  (void)guest;
  kernel_.run_for_us(100);
  GuestContext ctx(kernel_, *pd, platform_.cpu());
  // Write a pattern into guest memory, store to SD block 5, wipe, read back.
  const vaddr_t buf = kGuestUserVa + 0x1000;
  for (u32 i = 0; i < 512; i += 4)
    ASSERT_TRUE(platform_.cpu().vwrite32(buf + i, i * 7 + 1).ok);
  ASSERT_TRUE(ctx.hypercall(Hypercall::kSdTransfer, 1, 5, buf).ok());  // write
  for (u32 i = 0; i < 512; i += 4)
    ASSERT_TRUE(platform_.cpu().vwrite32(buf + i, 0).ok);
  ASSERT_TRUE(ctx.hypercall(Hypercall::kSdTransfer, 0, 5, buf).ok());  // read
  EXPECT_EQ(platform_.cpu().vread32(buf + 8).value, 8u * 7 + 1);
}

TEST_F(KernelTest, IvcSendRecvWithNotification) {
  auto [pd0, g0] = make_vm("vm0", 1);
  auto [pd1, g1] = make_vm("vm1", 1);
  (void)g0;
  (void)g1;
  IvcChannel& ch = kernel_.create_channel(*pd0, *pd1);
  kernel_.run_for_us(100);

  GuestContext c0(kernel_, *pd0, platform_.cpu());
  GuestContext c1(kernel_, *pd1, platform_.cpu());
  ASSERT_TRUE(c0.hypercall(Hypercall::kIvcSend, ch.id(), 0xAA, 0xBB).ok());
  // Receiver's vGIC saw the notification.
  EXPECT_TRUE(pd1->vgic().is_registered(ch.virq()));
  const auto r = c1.hypercall(Hypercall::kIvcRecv, ch.id());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.r1, 0xAAu);
  // Empty now.
  EXPECT_EQ(c1.hypercall(Hypercall::kIvcRecv, ch.id()).status,
            HcStatus::kNotFound);
}

TEST_F(KernelTest, IvcDeniedForNonMembers) {
  auto [pd0, g0] = make_vm("vm0", 1);
  auto [pd1, g1] = make_vm("vm1", 1);
  auto [pd2, g2] = make_vm("vm2", 1);
  (void)g0;
  (void)g1;
  (void)g2;
  IvcChannel& ch = kernel_.create_channel(*pd0, *pd1);
  kernel_.run_for_us(100);
  GuestContext c2(kernel_, *pd2, platform_.cpu());
  EXPECT_EQ(c2.hypercall(Hypercall::kIvcSend, ch.id(), 1, 2).status,
            HcStatus::kNotFound);
}

TEST_F(KernelTest, LazyVfpSwitchesOnlyOnCrossVmUse) {
  auto [pd0, g0] = make_vm("vm0", 1);
  auto [pd1, g1] = make_vm("vm1", 1);
  (void)g0;
  (void)g1;
  kernel_.run_for_us(100);
  auto& stats = platform_.stats();
  GuestContext c0(kernel_, *pd0, platform_.cpu());
  GuestContext c1(kernel_, *pd1, platform_.cpu());
  c0.use_vfp();
  EXPECT_EQ(stats.counter_value("kernel.trap.vfp_switch"), 1u);
  c0.use_vfp();  // same owner: free
  EXPECT_EQ(stats.counter_value("kernel.trap.vfp_switch"), 1u);
  c1.use_vfp();  // ownership moves
  EXPECT_EQ(stats.counter_value("kernel.trap.vfp_switch"), 2u);
}

TEST_F(KernelTest, TlbSurvivesVmSwitchWithAsids) {
  // §III.C: switching VMs reloads TTBR+ASID without flushing the TLB.
  auto burn = [](GuestContext& ctx, cycles_t budget) {
    // Touch guest memory so translations enter the TLB.
    for (vaddr_t va = kGuestUserVa; va < kGuestUserVa + 0x4000; va += 0x1000)
      (void)ctx.read32(va);
    ctx.spend_insns(budget / 2);
    return StepExit::kBudget;
  };
  make_vm("vm0", 1, burn);
  make_vm("vm1", 1, burn);
  kernel_.run_for_us(150'000);  // several quantum rotations
  EXPECT_GT(kernel_.vm_switch_count(), 2u);
  EXPECT_EQ(platform_.cpu().tlb().stats().flushes, 0u);  // no full flushes
}

TEST_F(KernelTest, HaltedGuestLeavesScheduler) {
  auto [pd, guest] = make_vm("vm0", 1, [](GuestContext&, cycles_t) {
    return StepExit::kHalt;
  });
  (void)guest;
  kernel_.run_for_us(10'000);
  EXPECT_EQ(pd->state(), PdState::kHalted);
}

}  // namespace
}  // namespace minova::nova
