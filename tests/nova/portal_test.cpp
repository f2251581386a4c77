// Portal-layer coverage: the per-PD dispatch tables (every hypercall must
// resolve to a handler with its own cost region), the exhaustive
// capability × hypercall denial matrix, gate-level uniform denial
// accounting, the TrapGuard cycle-charging invariant (golden values
// captured from the pre-portal kernel — Table III must not move), and the
// PL-range restriction on the manager's IRQ assignment service.
#include <gtest/gtest.h>

#include "nova/kernel.hpp"
#include "nova/portal.hpp"
#include "nova/trap.hpp"
#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::StubGuest;

std::unique_ptr<StubGuest> idle_guest() {
  return std::make_unique<StubGuest>(
      [](GuestContext&, cycles_t) { return StepExit::kYield; });
}

// ---- table construction -----------------------------------------------------

TEST(PortalTableTest, EveryHypercallHasAHandlerAndItsOwnCostRegion) {
  const PortalTable table = PortalTable::build(kCapHwClient);
  for (u32 h = 0; h < kNumHypercalls; ++h) {
    const Portal& p = table.at(h);
    // The gate indexes the handler's cost region by hypercall number, so
    // every portal with a handler charges its own text footprint.
    EXPECT_NE(p.handler, nullptr) << "hypercall " << h << " has no handler";
  }
}

TEST(PortalTableTest, OnlyHardwareTaskPortalsRequireCapabilities) {
  for (u32 h = 0; h < kNumHypercalls; ++h) {
    const Hypercall hc = Hypercall(h);
    const u32 required = portal_required_caps(hc);
    if (hc == Hypercall::kHwTaskRequest || hc == Hypercall::kHwTaskRelease ||
        hc == Hypercall::kHwTaskQuery) {
      EXPECT_EQ(required, u32(kCapHwClient));
    } else {
      EXPECT_EQ(required, 0u) << "hypercall " << h;
    }
  }
}

TEST(PortalTableTest, ExhaustiveCapabilityDenialMatrix) {
  // All 8 subsets of {kCapMapOther, kCapPlControl, kCapHwClient}: a portal
  // is denied exactly when the PD's cap set misses a required bit.
  const u32 all_caps[] = {kCapMapOther, kCapPlControl, kCapHwClient};
  for (u32 subset = 0; subset < 8; ++subset) {
    u32 caps = 0;
    for (u32 b = 0; b < 3; ++b)
      if (subset & (1u << b)) caps |= all_caps[b];
    const PortalTable table = PortalTable::build(caps);
    for (u32 h = 0; h < kNumHypercalls; ++h) {
      const u32 required = portal_required_caps(Hypercall(h));
      EXPECT_EQ(table.at(h).denied, (caps & required) != required)
          << "caps=" << caps << " hypercall=" << h;
    }
  }
}

TEST(PortalTableTest, OneSharedTablePerCapabilitySet) {
  // Every PD with the same caps points at one table, identical to a freshly
  // built one; bits outside PdCaps select the same table.
  for (u32 caps = 0; caps < 8; ++caps) {
    const PortalTable& shared = PortalTable::for_caps(caps);
    EXPECT_EQ(&shared, &PortalTable::for_caps(caps));
    EXPECT_EQ(&shared, &PortalTable::for_caps(caps | 0x100u));
    const PortalTable built = PortalTable::build(caps);
    for (u32 h = 0; h < kNumHypercalls; ++h) {
      EXPECT_EQ(shared.at(h).handler, built.at(h).handler);
      EXPECT_EQ(shared.at(h).denied, built.at(h).denied) << "caps=" << caps;
    }
  }
}

TEST(PortalTableTest, CostClassesMatchTheBootTimeLayout) {
  // The mm/hw groupings drive the code-layout placement: they must stay in
  // sync with the handler text sizes Kernel::boot places.
  EXPECT_EQ(portal_cost_class(Hypercall::kMapInsert), PortalCost::kMm);
  EXPECT_EQ(portal_cost_class(Hypercall::kMapRemove), PortalCost::kMm);
  EXPECT_EQ(portal_cost_class(Hypercall::kPtCreate), PortalCost::kMm);
  EXPECT_EQ(portal_cost_class(Hypercall::kMemProtect), PortalCost::kMm);
  EXPECT_EQ(portal_cost_class(Hypercall::kHwTaskRequest), PortalCost::kHw);
  EXPECT_EQ(portal_cost_class(Hypercall::kHwTaskRelease), PortalCost::kHw);
  EXPECT_EQ(portal_cost_class(Hypercall::kHwTaskQuery), PortalCost::kSmall);
  EXPECT_EQ(portal_cost_class(Hypercall::kRegRead), PortalCost::kSmall);
}

// ---- gate-level denial ------------------------------------------------------

class NullHwService final : public HwService {
 public:
  HcStatus handle_request(GuestContext&, const HwTaskRequest&,
                          u32&) override {
    return HcStatus::kSuccess;
  }
  HcStatus handle_release(GuestContext&, PdId, hwtask::TaskId) override {
    return HcStatus::kSuccess;
  }
  u32 query_reconfig(PdId) override { return 0; }
};

TEST(PortalGateTest, ManagerWithoutHwClientCapIsDeniedUniformly) {
  Platform platform;
  Kernel kernel(platform);
  (void)kernel.create_vm("vm0", 1, idle_guest());
  NullHwService service;
  // The manager holds kCapMapOther|kCapPlControl but NOT kCapHwClient: its
  // own hardware-task portals are denied at build time.
  ProtectionDomain& mgr = kernel.create_manager("mgr", 2, service);
  EXPECT_TRUE(mgr.portals()[Hypercall::kHwTaskRequest].denied);
  EXPECT_TRUE(mgr.portals()[Hypercall::kHwTaskRelease].denied);
  EXPECT_TRUE(mgr.portals()[Hypercall::kHwTaskQuery].denied);
  EXPECT_FALSE(mgr.portals()[Hypercall::kRegRead].denied);

  u64& denied = platform.stats().counter("kernel.portal_denied");
  const u64 before = denied;
  GuestContext mctx(kernel, mgr, platform.cpu());
  EXPECT_EQ(mctx.hypercall(Hypercall::kHwTaskRequest, 1, 0x0080'0000u).status,
            HcStatus::kDenied);
  EXPECT_EQ(mctx.hypercall(Hypercall::kHwTaskRelease, 1).status,
            HcStatus::kDenied);
  EXPECT_EQ(mctx.hypercall(Hypercall::kHwTaskQuery, 0).status,
            HcStatus::kDenied);
  EXPECT_EQ(denied, before + 3);  // every denial counted uniformly
}

TEST(PortalGateTest, GrantedPortalsDoNotTouchTheDenialCounter) {
  Platform platform;
  Kernel kernel(platform);
  ProtectionDomain& vm = kernel.create_vm("vm0", 1, idle_guest());
  kernel.run_for_us(100);
  u64& denied = platform.stats().counter("kernel.portal_denied");
  const u64 before = denied;
  GuestContext c(kernel, vm, platform.cpu());
  EXPECT_EQ(c.hypercall(Hypercall::kRegRead, 0, 0).status,
            HcStatus::kSuccess);
  EXPECT_EQ(c.hypercall(Hypercall::kCacheFlushAll).status,
            HcStatus::kSuccess);
  EXPECT_EQ(denied, before);
}

// ---- trap accounting --------------------------------------------------------

TEST(TrapAccountingTest, TrapCountersTrackEachKernelEntryKind) {
  Platform platform;
  Kernel kernel(platform);
  ProtectionDomain& vm0 = kernel.create_vm("vm0", 1, idle_guest());
  ProtectionDomain& vm1 = kernel.create_vm("vm1", 1, idle_guest());
  kernel.run_for_us(100);
  auto& stats = platform.stats();
  GuestContext c0(kernel, vm0, platform.cpu());
  GuestContext c1(kernel, vm1, platform.cpu());

  const u64 hc0 = stats.counter("kernel.trap.hypercall");
  (void)c0.hypercall(Hypercall::kRegRead, 0, 0);
  (void)c0.hypercall(Hypercall(0x7F));  // unknown numbers are traps too
  EXPECT_EQ(stats.counter("kernel.trap.hypercall"), hc0 + 2);

  const u64 flt0 = stats.counter("kernel.trap.guest_fault");
  const auto bad = platform.cpu().vread32(0x0F00'0000u);
  kernel.forward_guest_fault(vm0, bad.fault);
  EXPECT_EQ(stats.counter("kernel.trap.guest_fault"), flt0 + 1);

  const u64 vfp0 = stats.counter("kernel.trap.vfp_switch");
  c0.use_vfp();  // first touch switches ownership
  c0.use_vfp();  // owner already: no trap
  c1.use_vfp();  // ping-pong: trap
  EXPECT_EQ(stats.counter("kernel.trap.vfp_switch"), vfp0 + 2);

  // The IRQ counter advances as the run loop takes timer ticks.
  const u64 irq0 = stats.counter("kernel.trap.irq");
  kernel.run_for_us(5000);
  EXPECT_GT(stats.counter("kernel.trap.irq"), irq0);
}

TEST(TrapAccountingTest, TrapGuardChargesIdenticalCyclesToPreRefactorPaths) {
  // Golden values measured on the pre-portal kernel (hand-rolled
  // enter/exec/return sequences) with this exact warmup. The TrapGuard
  // refactor must charge bit-identical cycle counts or Table III and the
  // bench numbers move.
  Platform platform;
  Kernel kernel(platform);
  ProtectionDomain& vm0 = kernel.create_vm("vm0", 1, idle_guest());
  ProtectionDomain& vm1 = kernel.create_vm("vm1", 1, idle_guest());
  kernel.run_for_us(100);
  GuestContext c0(kernel, vm0, platform.cpu());
  GuestContext c1(kernel, vm1, platform.cpu());
  auto& clock = platform.clock();
  auto measure = [&](auto&& fn) {
    const cycles_t t0 = clock.now();
    fn();
    return clock.now() - t0;
  };

  // Steady-state null hypercall (reg_read): warm twice, measure the third.
  (void)c0.hypercall(Hypercall::kRegRead, 0, 0);
  (void)c0.hypercall(Hypercall::kRegRead, 0, 0);
  EXPECT_EQ(measure([&] { (void)c0.hypercall(Hypercall::kRegRead, 0, 0); }),
            340u);

  // Unknown hypercall number (warm from the calls above).
  (void)c0.hypercall(Hypercall(0x7F));
  EXPECT_EQ(measure([&] { (void)c0.hypercall(Hypercall(0x7F)); }), 237u);

  // Guest-fault forwarding (ABT path), steady state.
  const auto bad = platform.cpu().vread32(0x0F00'0000u);
  kernel.forward_guest_fault(vm0, bad.fault);
  EXPECT_EQ(
      measure([&] { kernel.forward_guest_fault(vm0, bad.fault); }),
      174u);

  // Lazy-VFP UND trap: ownership ping-pong, measure steady-state switch.
  c0.use_vfp();
  c1.use_vfp();
  c0.use_vfp();
  EXPECT_EQ(measure([&] { c1.use_vfp(); }), 423u);
}

// ---- PL IRQ assignment restriction ------------------------------------------

TEST(AssignPlIrqTest, OnlyPlToPsSourcesAreAssignable) {
  Platform platform;
  Kernel kernel(platform);
  ProtectionDomain& vm = kernel.create_vm("vm0", 1, idle_guest());
  NullHwService service;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 2, service);

  // Both PL banks, inclusive of their edges.
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPl0Base),
            HcStatus::kSuccess);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPl0Base + 7),
            HcStatus::kSuccess);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPl1Base),
            HcStatus::kSuccess);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPl1Base + 7),
            HcStatus::kSuccess);

  // Kernel-owned sources must not be claimable through the PL path.
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPrivateTimer),
            HcStatus::kInvalidArg);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqDevcfg),
            HcStatus::kInvalidArg);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqUart0),
            HcStatus::kInvalidArg);
  // Gaps around the banks and out-of-range numbers.
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPl0Base + 8),
            HcStatus::kInvalidArg);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPl1Base - 1),
            HcStatus::kInvalidArg);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kIrqPl1Base + 8),
            HcStatus::kInvalidArg);
  EXPECT_EQ(kernel.svc_assign_pl_irq(mgr, vm.id(), mem::kNumIrqs),
            HcStatus::kInvalidArg);

  // Callers without kCapPlControl are refused regardless of the range.
  EXPECT_EQ(kernel.svc_assign_pl_irq(vm, vm.id(), mem::kIrqPl0Base),
            HcStatus::kDenied);
}

}  // namespace
}  // namespace minova::nova
