#include "nova/vcpu.hpp"

#include <gtest/gtest.h>

#include "core/platform.hpp"

namespace minova::nova {
namespace {

class VcpuTest : public ::testing::Test {
 protected:
  VcpuTest() : heap_(kKernelHeapBase + 3 * kMiB, 2 * kMiB) {}

  Platform platform_;
  KernelHeap heap_;
};

TEST_F(VcpuTest, SaveRestoreRoundTripsRegisters) {
  Vcpu a(heap_, 1), b(heap_, 2);
  auto& core = platform_.cpu();

  for (unsigned i = 0; i < 16; ++i) core.regs().set(cpu::Mode::kUsr, i, 100 + i);
  // TTBR/DACR live in the vCPU mirror (kernel updates it via kSetGuestMode /
  // address-space setup); save_active deliberately does NOT snapshot the live
  // MMU — a save can run mid-hypercall while the host DACR is loaded, and
  // snapshotting there would leak the kernel's all-domains DACR into the
  // guest frame.
  a.set_mmu_context(0x4000, 0x5);
  core.mmu().set_ttbr0(0xDEAD'0000);  // host values a save must not capture
  core.mmu().set_dacr(0xFFFF'FFFF);
  a.save_active(core);

  // Clobber with b's (zero) state, then restore a.
  b.restore_active(core);
  EXPECT_EQ(core.regs().get(cpu::Mode::kUsr, 5), 0u);
  a.restore_active(core);
  for (unsigned i = 0; i < 15; ++i)
    EXPECT_EQ(core.regs().get(cpu::Mode::kUsr, i), 100 + i);
  EXPECT_EQ(core.mmu().ttbr0(), 0x4000u);
  EXPECT_EQ(core.mmu().dacr(), 0x5u);
  EXPECT_EQ(core.mmu().asid(), 1u);
}

TEST_F(VcpuTest, RestoreLoadsAsidOfOwner) {
  Vcpu a(heap_, 7);
  a.set_mmu_context(0x8000, 0x15);
  a.restore_active(platform_.cpu());
  EXPECT_EQ(platform_.cpu().mmu().asid(), 7u);
  EXPECT_EQ(platform_.cpu().mmu().ttbr0(), 0x8000u);
  EXPECT_EQ(platform_.cpu().mmu().dacr(), 0x15u);
}

TEST_F(VcpuTest, SaveAreasAreDistinctAndAligned) {
  Vcpu a(heap_, 1), b(heap_, 2);
  EXPECT_NE(a.save_area(), b.save_area());
  EXPECT_TRUE(is_aligned(a.save_area(), 64));  // no false sharing of lines
  const u32 area_bytes =
      (Vcpu::kActiveWords + Vcpu::kVfpWords + Vcpu::kL2CtrlWords) * 4;
  EXPECT_GE(b.save_area(), a.save_area() + area_bytes);
}

TEST_F(VcpuTest, ActiveSwitchCheaperThanWithVfp) {
  // Table I's rationale: the VFP bank is expensive; lazy switching avoids
  // moving it on every VM switch.
  Vcpu a(heap_, 1);
  auto& core = platform_.cpu();
  const cycles_t t0 = platform_.clock().now();
  a.save_active(core);
  const cycles_t active_cost = platform_.clock().now() - t0;

  const cycles_t t1 = platform_.clock().now();
  a.save_vfp(core);
  const cycles_t vfp_cost = platform_.clock().now() - t1;
  EXPECT_GT(vfp_cost, active_cost);
  EXPECT_GT(Vcpu::kVfpWords, Vcpu::kActiveWords);
}

TEST_F(VcpuTest, VfpRoundTrip) {
  Vcpu a(heap_, 1);
  auto& core = platform_.cpu();
  core.vfp().d[3] = 0xDEAD'BEEF'CAFE'F00Dull;
  core.vfp().fpscr = 0x1234;
  a.save_vfp(core);
  core.vfp().d[3] = 0;
  core.vfp().fpscr = 0;
  a.restore_vfp(core);
  EXPECT_EQ(core.vfp().d[3], 0xDEAD'BEEF'CAFE'F00Dull);
  EXPECT_EQ(core.vfp().fpscr, 0x1234u);
}

TEST_F(VcpuTest, VtimerStateHeldInVcpu) {
  Vcpu a(heap_, 1);
  a.vtimer().enabled = true;
  a.vtimer().period_us = 1000;
  a.vtimer().next_deadline = 660'000;
  EXPECT_TRUE(a.vtimer().enabled);
  EXPECT_EQ(a.vtimer().period_us, 1000u);
}

TEST_F(VcpuTest, RegisterMirrorAccess) {
  Vcpu a(heap_, 1);
  a.set_reg(0, 42);
  a.set_reg(12, 99);
  EXPECT_EQ(a.reg(0), 42u);
  EXPECT_EQ(a.reg(12), 99u);
}

}  // namespace
}  // namespace minova::nova
