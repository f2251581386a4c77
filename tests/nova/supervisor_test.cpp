// VM supervisor (DESIGN.md §16): fatal-trap containment terminates only the
// victim through the full destroy_vm teardown, the CPU-accumulation watchdog
// condemns a spinning guest while sparing anyone who pets it, the crash-loop
// policy restarts with exponential backoff and quarantines after the window
// cap, restarts re-bind IVC channels, the kSvcHealthQuery hypercall packs
// live health, and — with the supervisor off — every hook is inert and a
// fatal trap falls back to legacy forwarding.
#include "nova/supervisor.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/platform.hpp"
#include "nova/kernel.hpp"
#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::StubGuest;

/// Guest that raises one fatal trap per step while `armed` is set, else
/// pets the supervisor with a cheap hypercall and stays runnable.
StubGuest::StepFn crasher_step(bool* armed, FatalKind kind) {
  return [armed, kind](GuestContext& ctx, cycles_t) {
    if (*armed && ctx.raise_fatal(kind)) return StepExit::kHalt;
    ctx.spend_insns(50);
    (void)ctx.hypercall(Hypercall::kRegRead, 0, 0);
    return StepExit::kBudget;
  };
}

/// Guest that burns its whole budget without a hypercall or yield — exactly
/// what a hung guest looks like to the watchdog.
StubGuest::StepFn spinner_step() {
  return [](GuestContext& ctx, cycles_t budget) {
    ctx.spend_insns(budget + 1);
    return StepExit::kBudget;
  };
}

/// Well-behaved guest: burns a small fixed slice, pets via a hypercall
/// every step. (The watchdog charges each step's full burn after any
/// mid-step pet, so a polite guest keeps individual steps short.)
StubGuest::StepFn polite_step() {
  return [](GuestContext& ctx, cycles_t) {
    ctx.spend_insns(5'000);
    (void)ctx.hypercall(Hypercall::kRegRead, 0, 0);
    return StepExit::kBudget;
  };
}

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest() { boot(/*max_restarts=*/2); }

  /// Rebuild the platform and kernel; 0 restarts quarantines a slot on its
  /// first crash.
  void boot(u32 max_restarts) {
    KernelConfig kcfg;
    kcfg.supervisor.enabled = true;
    kcfg.supervisor.watchdog_us = 2'000.0;
    kcfg.supervisor.max_restarts = max_restarts;
    kcfg.supervisor.restart_window_us = 1'000'000.0;  // window never rolls
    kcfg.supervisor.backoff_base_us = 200.0;
    kernel_.reset();
    platform_ = std::make_unique<Platform>();
    kernel_ = std::make_unique<Kernel>(*platform_, kcfg);
  }

  ProtectionDomain* make_vm(const std::string& name, StubGuest::StepFn fn,
                            u32 prio = 1) {
    return &kernel_->create_vm(name, prio,
                               std::make_unique<StubGuest>(std::move(fn)));
  }

  Supervisor::GuestFactory stub_factory(StubGuest::StepFn fn) {
    return [fn](u32) { return std::make_unique<StubGuest>(fn); };
  }

  std::unique_ptr<Platform> platform_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(SupervisorTest, FatalTrapContainsOnlyTheVictim) {
  boot(/*max_restarts=*/0);
  bool armed = true;
  ProtectionDomain* crasher =
      make_vm("crasher", crasher_step(&armed, FatalKind::kUndefinedInsn));
  ProtectionDomain* healthy = make_vm("healthy", polite_step());
  auto* healthy_guest = static_cast<StubGuest*>(healthy->guest());
  const PdId crasher_id = crasher->id();

  Supervisor* sup = kernel_->supervisor();
  ASSERT_NE(sup, nullptr);
  const u32 slot = sup->watch(*crasher, stub_factory(polite_step()));

  kernel_->run_for_us(10'000);

  // The victim is gone — reaped through the full destroy_vm teardown — and
  // its slot is quarantined (max_restarts = 0: the first crash retires it).
  EXPECT_EQ(kernel_->pd_by_id(crasher_id), nullptr);
  EXPECT_EQ(sup->record(slot).health, VmHealth::kQuarantined);
  EXPECT_FALSE(sup->record(slot).live);
  EXPECT_EQ(sup->stats().crashes, 1u);
  EXPECT_EQ(sup->stats().quarantines, 1u);
  EXPECT_EQ(platform_->stats().counter_value("kernel.supervisor.crashes"), 1u);

  // The host kernel survived and the healthy VM kept running.
  const u64 before = healthy_guest->steps;
  kernel_->run_for_us(10'000);
  EXPECT_GT(healthy_guest->steps, before);
  EXPECT_EQ(kernel_->vms_destroyed(), 1u);
}

TEST_F(SupervisorTest, EachFatalKindIsContained) {
  boot(/*max_restarts=*/0);
  Supervisor* sup = kernel_->supervisor();
  u64 expected = 0;
  for (FatalKind kind : {FatalKind::kUndefinedInsn, FatalKind::kPrefetchAbort,
                         FatalKind::kDataAbort}) {
    bool armed = true;
    ProtectionDomain* vm = make_vm("crash" + std::to_string(expected),
                                   crasher_step(&armed, kind));
    const PdId id = vm->id();
    sup->watch(*vm, stub_factory(polite_step()));
    kernel_->run_for_us(10'000);
    ++expected;
    EXPECT_EQ(kernel_->pd_by_id(id), nullptr) << "kind " << int(kind);
    EXPECT_EQ(sup->stats().crashes, expected);
  }
}

TEST_F(SupervisorTest, WatchdogCondemnsSpinnerAndSparesPoliteGuest) {
  boot(/*max_restarts=*/0);
  ProtectionDomain* spinner = make_vm("spinner", spinner_step());
  ProtectionDomain* polite = make_vm("polite", polite_step());
  const PdId spinner_id = spinner->id();

  Supervisor* sup = kernel_->supervisor();
  const u32 spin_slot = sup->watch(*spinner, stub_factory(polite_step()));
  const u32 polite_slot = sup->watch(*polite, stub_factory(polite_step()));

  kernel_->run_for_us(50'000);

  EXPECT_EQ(kernel_->pd_by_id(spinner_id), nullptr);
  EXPECT_EQ(sup->record(spin_slot).health, VmHealth::kQuarantined);
  EXPECT_GE(sup->stats().watchdog_fires, 1u);
  // The polite guest burned plenty of CPU too, but every hypercall reset
  // its accumulator: still healthy, still live.
  EXPECT_TRUE(sup->record(polite_slot).live);
  EXPECT_EQ(sup->record(polite_slot).health, VmHealth::kHealthy);
  EXPECT_EQ(sup->stats().crashes, 0u);  // hang, not a fatal trap
}

TEST_F(SupervisorTest, CrashLoopRestartsWithBackoffThenQuarantines) {
  bool armed = true;
  ProtectionDomain* vm =
      make_vm("loop", crasher_step(&armed, FatalKind::kDataAbort));

  Supervisor* sup = kernel_->supervisor();
  // Factory builds another always-crashing incarnation each time.
  const u32 slot = sup->watch(
      *vm, [&armed](u32) {
        return std::make_unique<StubGuest>(
            crasher_step(&armed, FatalKind::kDataAbort));
      });

  kernel_->run_for_us(100'000);

  // max_restarts = 2: crash -> restart -> crash -> restart -> crash ->
  // quarantine. Three condemnations, two completed restarts, one retirement.
  const auto& r = sup->record(slot);
  EXPECT_EQ(sup->stats().crashes, 3u);
  EXPECT_EQ(sup->stats().restarts, 2u);
  EXPECT_EQ(sup->stats().quarantines, 1u);
  EXPECT_EQ(r.incarnation, 2u);
  EXPECT_EQ(r.health, VmHealth::kQuarantined);
  EXPECT_FALSE(r.live);
  EXPECT_EQ(platform_->stats().counter_value("kernel.supervisor.restarts"), 2u);
  EXPECT_EQ(kernel_->vms_destroyed(), 3u);
}

TEST_F(SupervisorTest, RestartedSlotRecoversWhenGuestBehaves) {
  bool armed = true;
  ProtectionDomain* vm =
      make_vm("flaky", crasher_step(&armed, FatalKind::kPrefetchAbort));

  Supervisor* sup = kernel_->supervisor();
  const u32 slot = sup->watch(*vm, stub_factory(polite_step()));

  kernel_->run_for_us(5'000);  // first incarnation crashes
  armed = false;               // replacement behaves (factory uses polite)
  kernel_->run_for_us(50'000);

  const auto& r = sup->record(slot);
  EXPECT_TRUE(r.live);
  EXPECT_EQ(r.health, VmHealth::kHealthy);
  EXPECT_EQ(r.incarnation, 1u);
  EXPECT_EQ(sup->stats().crashes, 1u);
  EXPECT_EQ(sup->stats().restarts, 1u);
  EXPECT_EQ(sup->stats().quarantines, 0u);
  // The replacement PD is real and runnable.
  ProtectionDomain* pd = kernel_->pd_by_id(r.pd);
  ASSERT_NE(pd, nullptr);
  EXPECT_GT(static_cast<StubGuest*>(pd->guest())->steps, 0u);
}

TEST_F(SupervisorTest, QuarantineReclaimsKernelObjects) {
  boot(/*max_restarts=*/0);
  // Baseline after the healthy VM exists; the crasher's whole footprint
  // (heap blocks, control block, PD slot) must return to it.
  ProtectionDomain* healthy = make_vm("healthy", polite_step());
  (void)healthy;
  kernel_->run_for_us(1'000);
  const u32 blocks = kernel_->heap().live_blocks();
  const u32 ctrl = kernel_->heap().ctrl_live();

  bool armed = true;
  ProtectionDomain* crasher =
      make_vm("crasher", crasher_step(&armed, FatalKind::kDataAbort));
  Supervisor* sup = kernel_->supervisor();
  sup->watch(*crasher, stub_factory(polite_step()));

  // The healthy VM holds a full scheduler quantum (33 ms default) when the
  // crasher is created mid-run: give the window enough slices for the
  // crasher to be scheduled, crash and be reaped.
  kernel_->run_for_us(100'000);
  ASSERT_EQ(sup->stats().quarantines, 1u);
  EXPECT_EQ(kernel_->heap().live_blocks(), blocks);
  EXPECT_EQ(kernel_->heap().ctrl_live(), ctrl);
}

TEST_F(SupervisorTest, RestartRebindsIvcChannel) {
  bool armed = true;
  ProtectionDomain* flaky =
      make_vm("flaky", crasher_step(&armed, FatalKind::kUndefinedInsn));
  ProtectionDomain* peer = make_vm("peer", polite_step());
  const PdId peer_id = peer->id();
  IvcChannel& ch = kernel_->create_channel(*flaky, *peer);
  const u32 ch_id = ch.id();

  Supervisor* sup = kernel_->supervisor();
  const u32 slot = sup->watch(*flaky, stub_factory(polite_step()));

  kernel_->run_for_us(5'000);  // crash + teardown
  armed = false;
  kernel_->run_for_us(50'000);  // backoff elapses, restart happens

  const auto& r = sup->record(slot);
  ASSERT_TRUE(r.live);
  ASSERT_EQ(r.incarnation, 1u);
  // The channel follows the slot: the fresh PD is a member, can reach the
  // peer, and the dead endpoint's id is gone.
  EXPECT_TRUE(ch.connects(r.pd));
  EXPECT_FALSE(ch.endpoint_dead(r.pd));
  ProtectionDomain* fresh = kernel_->pd_by_id(r.pd);
  ASSERT_NE(fresh, nullptr);
  GuestContext ctx(*kernel_, *fresh, platform_->cpu());
  EXPECT_EQ(ctx.hypercall(Hypercall::kIvcSend, ch_id, 42).status,
            HcStatus::kSuccess);
  // And the peer was notified of the original death: hangup virq latched.
  ProtectionDomain* p = kernel_->pd_by_id(peer_id);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->vgic().is_registered(ch.virq()));
}

TEST_F(SupervisorTest, HealthQueryHypercallPacksLiveState) {
  ProtectionDomain* vm = make_vm("vm", polite_step());
  Supervisor* sup = kernel_->supervisor();
  sup->watch(*vm, stub_factory(polite_step()));
  kernel_->run_for_us(1'000);

  GuestContext ctx(*kernel_, *vm, platform_->cpu());
  auto res = ctx.hypercall(Hypercall::kRegRead, kSvcHealthQuery,
                           kSvcHealthSelf);
  ASSERT_EQ(res.status, HcStatus::kSuccess);
  EXPECT_EQ(res.r1 >> 28, u32(VmHealth::kHealthy));

  // Degrade via forwarded faults; the query must reflect both the health
  // transition and the fault count.
  for (u32 i = 0; i < Supervisor::kDegradeFaults; ++i)
    sup->on_forwarded_fault(vm->id());
  res = ctx.hypercall(Hypercall::kRegRead, kSvcHealthQuery, kSvcHealthSelf);
  ASSERT_EQ(res.status, HcStatus::kSuccess);
  EXPECT_EQ(res.r1 >> 28, u32(VmHealth::kDegraded));
  EXPECT_EQ(res.r1 & 0xFFFFu, Supervisor::kDegradeFaults);

  // Unwatched targets are kNotFound; the legacy sysregs path still works.
  ProtectionDomain* other = make_vm("other", polite_step());
  GuestContext octx(*kernel_, *other, platform_->cpu());
  EXPECT_EQ(octx.hypercall(Hypercall::kRegRead, kSvcHealthQuery,
                           kSvcHealthSelf)
                .status,
            HcStatus::kNotFound);
  EXPECT_EQ(ctx.hypercall(Hypercall::kRegRead, 0, 0).status,
            HcStatus::kSuccess);
}

TEST(SupervisorOffTest, FatalFallsBackToLegacyForwardingAndHooksAreInert) {
  Platform platform;
  Kernel kernel(platform);  // default config: no supervisor
  EXPECT_EQ(kernel.supervisor(), nullptr);

  u64 uncontained = 0;
  auto& vm = kernel.create_vm(
      "vm", 1, std::make_unique<StubGuest>([&](GuestContext& ctx, cycles_t) {
        if (uncontained == 0 && ctx.raise_fatal(FatalKind::kDataAbort))
          return StepExit::kHalt;
        ++uncontained;  // not contained: the guest staggers on, like legacy
        ctx.spend_insns(100);
        return StepExit::kYield;
      }));
  const PdId id = vm.id();
  kernel.run_for_us(10'000);

  // Nothing was destroyed; the fault was forwarded, the VM kept running.
  EXPECT_NE(kernel.pd_by_id(id), nullptr);
  EXPECT_GT(uncontained, 0u);
  EXPECT_EQ(kernel.vms_destroyed(), 0u);

  // The health query is a defined error, not a crash.
  GuestContext ctx(kernel, vm, platform.cpu());
  EXPECT_EQ(ctx.hypercall(Hypercall::kRegRead, kSvcHealthQuery,
                          kSvcHealthSelf)
                .status,
            HcStatus::kNotSupported);
}

}  // namespace
}  // namespace minova::nova
