// Exhaustive hypercall ABI round-trip coverage: every one of the paper's
// 25 hypercalls issued through the real gate (SVC entry/exit, DACR swap,
// dispatch), with argument marshalling, result registers and error paths
// checked — plus out-of-range numbers, which must be rejected without
// bringing the kernel down.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "nova/kernel.hpp"
#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::StubGuest;

class HypercallAbiTest : public ::testing::Test {
 protected:
  HypercallAbiTest() : kernel_(platform_) {
    pd_ = &kernel_.create_vm("vm0", 1, std::make_unique<StubGuest>());
    peer_ = &kernel_.create_vm("vm1", 1, std::make_unique<StubGuest>());
    kernel_.run_for_us(100);  // boot both VMs
  }

  GuestContext ctx() { return GuestContext(kernel_, *pd_, platform_.cpu()); }
  GuestContext peer_ctx() {
    return GuestContext(kernel_, *peer_, platform_.cpu());
  }

  Platform platform_;
  Kernel kernel_;
  ProtectionDomain* pd_ = nullptr;
  ProtectionDomain* peer_ = nullptr;
};

// -- (1) cache / TLB ----------------------------------------------------------

TEST_F(HypercallAbiTest, CacheAndTlbOpsSucceedAndCostTime) {
  auto c = ctx();
  const cycles_t t0 = platform_.clock().now();
  EXPECT_EQ(c.hypercall(Hypercall::kCacheFlushAll).status, HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kCacheCleanRange, 0, 0x1000, 4096).status,
            HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kIcacheInvalidate).status,
            HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kTlbFlushAll).status, HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kTlbFlushVa, 0, 0x8000).status,
            HcStatus::kSuccess);
  EXPECT_GT(platform_.clock().now(), t0);  // each call charged real cycles
}

// -- (2) IRQ operations -------------------------------------------------------

TEST_F(HypercallAbiTest, IrqEnableDisableRoundTrip) {
  auto c = ctx();
  // kVtimerVirq is registered for every VM at creation.
  ASSERT_TRUE(pd_->vgic().is_registered(kVtimerVirq));
  EXPECT_EQ(c.hypercall(Hypercall::kIrqEnable, kVtimerVirq).status,
            HcStatus::kSuccess);
  EXPECT_TRUE(pd_->vgic().is_enabled(kVtimerVirq));
  EXPECT_EQ(c.hypercall(Hypercall::kIrqDisable, kVtimerVirq).status,
            HcStatus::kSuccess);
  EXPECT_FALSE(pd_->vgic().is_enabled(kVtimerVirq));
  // Unregistered sources are rejected, not silently accepted.
  EXPECT_EQ(c.hypercall(Hypercall::kIrqEnable, 100).status,
            HcStatus::kNotFound);
  EXPECT_EQ(c.hypercall(Hypercall::kIrqDisable, 100).status,
            HcStatus::kNotFound);
}

TEST_F(HypercallAbiTest, IrqCompleteAndSetEntry) {
  auto c = ctx();
  EXPECT_EQ(c.hypercall(Hypercall::kIrqComplete, kVtimerVirq).status,
            HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kIrqSetEntry, 0, 0xCAFE'0000u).status,
            HcStatus::kSuccess);
  EXPECT_EQ(pd_->vgic().entry(), 0xCAFE'0000u);  // r1 marshalled through
}

// -- (3) memory management ----------------------------------------------------

TEST_F(HypercallAbiTest, MapRemoveThenInsertRestoresAccess) {
  auto c = ctx();
  const vaddr_t va = kGuestUserVa + 0x1000;
  ASSERT_TRUE(c.write32(va, 0xABCD'1234u).ok);

  // Remove: target 0xFFFF'FFFF means "self" (r0), VA in r1.
  EXPECT_EQ(c.hypercall(Hypercall::kMapRemove, 0xFFFF'FFFFu, va).status,
            HcStatus::kSuccess);
  EXPECT_FALSE(c.read32(va).ok);
  // Removing again: nothing mapped.
  EXPECT_EQ(c.hypercall(Hypercall::kMapRemove, 0xFFFF'FFFFu, va).status,
            HcStatus::kNotFound);

  // Insert it back: self-service mapping of the caller's own slab at the
  // identity offset. The earlier store must reappear (same frame).
  EXPECT_EQ(c.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, va, va).status,
            HcStatus::kSuccess);
  const auto r = c.read32(va);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xABCD'1234u);
}

TEST_F(HypercallAbiTest, MapInsertValidatesArguments) {
  auto c = ctx();
  // Misaligned VA.
  EXPECT_EQ(c.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu,
                        kGuestUserVa + 0x123, 0)
                .status,
            HcStatus::kInvalidArg);
  // Kernel VA range is off limits.
  EXPECT_EQ(c.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, kKernelVa, 0)
                .status,
            HcStatus::kInvalidArg);
  // Mapping into another PD requires the map-other capability.
  EXPECT_EQ(c.hypercall(Hypercall::kMapInsert, peer_->id(),
                        kGuestUserVa + 0x2000, 0)
                .status,
            HcStatus::kDenied);
  // Unaligned slab offset on a self-service mapping.
  EXPECT_EQ(c.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu,
                        kGuestUserVa + 0x2000, 0x10)
                .status,
            HcStatus::kDenied);
}

TEST_F(HypercallAbiTest, PtCreateAndMemProtect) {
  auto c = ctx();
  EXPECT_EQ(c.hypercall(Hypercall::kPtCreate, 0, kGuestUserVa).status,
            HcStatus::kSuccess);

  const vaddr_t va = kGuestUserVa + 0x3000;
  ASSERT_TRUE(c.write32(va, 7).ok);
  // r2 = 2: no access.
  EXPECT_EQ(c.hypercall(Hypercall::kMemProtect, 0, va, 2).status,
            HcStatus::kSuccess);
  EXPECT_FALSE(c.read32(va).ok);
  // r2 = 0: full access restored.
  EXPECT_EQ(c.hypercall(Hypercall::kMemProtect, 0, va, 0).status,
            HcStatus::kSuccess);
  EXPECT_TRUE(c.read32(va).ok);
  // Kernel VAs are rejected.
  EXPECT_EQ(c.hypercall(Hypercall::kMemProtect, 0, kKernelVa, 1).status,
            HcStatus::kInvalidArg);
}

TEST_F(HypercallAbiTest, SetGuestModeSwitchesPrivilegeView) {
  auto c = ctx();
  EXPECT_EQ(c.hypercall(Hypercall::kSetGuestMode, 0).status,
            HcStatus::kSuccess);
  EXPECT_FALSE(pd_->guest_in_kernel);
  EXPECT_EQ(c.hypercall(Hypercall::kSetGuestMode, 1).status,
            HcStatus::kSuccess);
  EXPECT_TRUE(pd_->guest_in_kernel);
}

// -- (4) privileged register access -------------------------------------------

TEST_F(HypercallAbiTest, RegWriteReadRoundTripsEveryRegister) {
  auto c = ctx();
  for (u32 reg = 0; reg < u32(pd_->sysregs.size()); ++reg) {
    const u32 value = 0xBEEF'0000u + reg;
    EXPECT_EQ(c.hypercall(Hypercall::kRegWrite, 0, reg, value).status,
              HcStatus::kSuccess);
    const auto res = c.hypercall(Hypercall::kRegRead, 0, reg);
    EXPECT_EQ(res.status, HcStatus::kSuccess);
    EXPECT_EQ(res.r1, value);  // r2 in, r1 out
  }
  const u32 bad = u32(pd_->sysregs.size());
  EXPECT_EQ(c.hypercall(Hypercall::kRegRead, 0, bad).status,
            HcStatus::kInvalidArg);
  EXPECT_EQ(c.hypercall(Hypercall::kRegWrite, 0, bad, 1).status,
            HcStatus::kInvalidArg);
}

TEST_F(HypercallAbiTest, VtimerConfigEnablesAndDisables) {
  auto c = ctx();
  EXPECT_EQ(c.hypercall(Hypercall::kVtimerConfig, 0, 500).status,
            HcStatus::kSuccess);
  EXPECT_TRUE(pd_->vcpu().vtimer().enabled);
  EXPECT_EQ(pd_->vcpu().vtimer().period_us, 500u);
  EXPECT_TRUE(pd_->vgic().is_enabled(kVtimerVirq));
  EXPECT_EQ(c.hypercall(Hypercall::kVtimerConfig, 0, 0).status,
            HcStatus::kSuccess);
  EXPECT_FALSE(pd_->vcpu().vtimer().enabled);
}

// -- (5) shared devices -------------------------------------------------------

TEST_F(HypercallAbiTest, UartWriteReachesSupervisedConsoleInOrder) {
  auto c = ctx();
  const std::string before = platform_.uart().transmitted();
  for (char ch : std::string("abi"))
    EXPECT_EQ(c.hypercall(Hypercall::kUartWrite, 0, u32(ch)).status,
              HcStatus::kSuccess);
  kernel_.run_for_us(100);  // the FIFO drains one character per ~8.7 us
  EXPECT_EQ(platform_.uart().transmitted().substr(before.size()), "abi");
}

TEST_F(HypercallAbiTest, SdTransferRoundTripsABlock) {
  auto c = ctx();
  const vaddr_t src = kGuestUserVa + 0x4000;
  const vaddr_t dst = kGuestUserVa + 0x5000;
  std::vector<u8> block(512);
  for (u32 i = 0; i < 512; ++i) block[i] = u8(i * 13 + 1);
  ASSERT_TRUE(c.write_block(src, block).ok);

  // r0 = 1: write guest memory (r2) to SD block r1; r0 = 0: read back.
  EXPECT_EQ(c.hypercall(Hypercall::kSdTransfer, 1, 42, src).status,
            HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kSdTransfer, 0, 42, dst).status,
            HcStatus::kSuccess);
  std::vector<u8> got(512);
  ASSERT_TRUE(c.read_block(dst, got).ok);
  EXPECT_EQ(got, block);

  // A block beyond the card image is rejected.
  EXPECT_EQ(c.hypercall(Hypercall::kSdTransfer, 0, 0x10'0000, dst).status,
            HcStatus::kInvalidArg);
}

TEST_F(HypercallAbiTest, DmaRequestCopiesWithinTheCaller) {
  auto c = ctx();
  const vaddr_t src = kGuestUserVa + 0x6000;
  const vaddr_t dst = kGuestUserVa + 0x7000;
  std::vector<u8> data(256);
  for (u32 i = 0; i < 256; ++i) data[i] = u8(255 - i);
  ASSERT_TRUE(c.write_block(src, data).ok);

  // r1 = dst, r2 = src, r3 = length.
  EXPECT_EQ(c.hypercall(Hypercall::kDmaRequest, 0, dst, src, 256).status,
            HcStatus::kSuccess);
  std::vector<u8> got(256);
  ASSERT_TRUE(c.read_block(dst, got).ok);
  EXPECT_EQ(got, data);

  EXPECT_EQ(c.hypercall(Hypercall::kDmaRequest, 0, dst, src, 0).status,
            HcStatus::kInvalidArg);  // zero length
  EXPECT_EQ(c.hypercall(Hypercall::kDmaRequest, 0, kKernelVa, src, 64).status,
            HcStatus::kInvalidArg);  // untranslatable destination
}

TEST_F(HypercallAbiTest, HwTaskCallsAreDeniedWithoutAService) {
  // No Hardware Task Manager installed in this fixture: the capability
  // check and service lookup must fail closed.
  auto c = ctx();
  EXPECT_EQ(c.hypercall(Hypercall::kHwTaskRequest, 1, kGuestHwIfaceVa,
                        kGuestHwDataVa)
                .status,
            HcStatus::kDenied);
  EXPECT_EQ(c.hypercall(Hypercall::kHwTaskRelease, 1).status,
            HcStatus::kDenied);
  EXPECT_EQ(c.hypercall(Hypercall::kHwTaskQuery, 0).status, HcStatus::kDenied);
  // The scheduler sub-ops are defined ABI but still need a live service.
  EXPECT_EQ(c.hypercall(Hypercall::kHwTaskQuery, kHwQuerySetPrio, 3).status,
            HcStatus::kDenied);
  EXPECT_EQ(c.hypercall(Hypercall::kHwTaskQuery, kHwQueryQuota).status,
            HcStatus::kDenied);
  // A selector past the defined sub-op range is not part of the ABI.
  EXPECT_EQ(c.hypercall(Hypercall::kHwTaskQuery, kHwQueryQuota + 1).status,
            HcStatus::kInvalidArg);
}

// -- (6) inter-VM communication -----------------------------------------------

TEST_F(HypercallAbiTest, IvcSendRecvRoundTripsAcrossVms) {
  kernel_.create_channel(*pd_, *peer_);
  auto a = ctx();
  auto b = peer_ctx();

  // Channel 0, payload words in r1/r2.
  EXPECT_EQ(a.hypercall(Hypercall::kIvcSend, 0, 0x1111'2222u, 0x3333'4444u)
                .status,
            HcStatus::kSuccess);
  const auto got = b.hypercall(Hypercall::kIvcRecv, 0);
  EXPECT_EQ(got.status, HcStatus::kSuccess);
  EXPECT_EQ(got.r1, 0x1111'2222u);
  // Empty queue reads back NotFound, not garbage.
  EXPECT_EQ(b.hypercall(Hypercall::kIvcRecv, 0).status, HcStatus::kNotFound);
  // Unknown channel id.
  EXPECT_EQ(a.hypercall(Hypercall::kIvcSend, 7, 1, 2).status,
            HcStatus::kNotFound);
}

// -- out-of-range numbers -----------------------------------------------------

TEST_F(HypercallAbiTest, OutOfRangeNumbersRejectedWithoutKernelDamage) {
  auto c = ctx();
  for (u32 n : {25u, 26u, 64u, 128u, 255u}) {
    const auto res = c.hypercall(Hypercall(n));
    EXPECT_EQ(res.status, HcStatus::kNotSupported) << "number " << n;
    EXPECT_EQ(res.r1, 0u);
  }
  // The gate is still fully operational afterwards.
  EXPECT_EQ(c.hypercall(Hypercall::kCacheFlushAll).status, HcStatus::kSuccess);
  const auto rw = c.hypercall(Hypercall::kRegWrite, 0, 3, 99);
  EXPECT_EQ(rw.status, HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kRegRead, 0, 3).r1, 99u);
}

TEST_F(HypercallAbiTest, EveryDefinedNumberDispatchesAndHasAName) {
  // All 25 numbers reach their handler: none may crash the kernel or fall
  // through to NotSupported, and each has a distinct diagnostic name.
  auto c = ctx();
  std::set<std::string> names;
  for (u32 n = 0; n < kNumHypercalls; ++n) {
    const std::string name = hypercall_name(Hypercall(n));
    EXPECT_NE(name, "?") << "number " << n;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    // Call with all-zero registers: any defined status is acceptable —
    // out-of-table is not.
    const auto res = c.hypercall(Hypercall(n));
    EXPECT_NE(res.status, HcStatus::kNotSupported) << name;
  }
  EXPECT_EQ(names.size(), 25u);
  EXPECT_STREQ(hypercall_name(Hypercall::kCount), "?");
}

}  // namespace
}  // namespace minova::nova
