// destroy_vm at every stage of the Fig. 7 pipeline the victim can occupy:
// idle resident, parked in the admission queue, mid-PCAP stream, and retry
// backoff after an injected transfer fault. The kernel's orderly teardown
// (DESIGN.md §16) must reclaim the victim's region through the manager's
// death hook in each stage — no PRR left naming the dead client, the event
// queue drainable without touching freed state, and the full fuzz invariant
// suite clean throughout. Each scenario ends by recycling the region to a
// freshly created VM.
#include "fuzz/invariants.hpp"

#include <gtest/gtest.h>

#include "../nova/stub_guest.hpp"
#include "hwmgr/manager.hpp"
#include "mem/address_map.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"
#include "sim/fault.hpp"

namespace minova::fuzz {
namespace {

using hwmgr::ManagerService;
using hwmgr::SchedConfig;
using nova::GuestContext;
using nova::Hypercall;
using nova::KernelInspector;
using nova::PdId;
using nova::ProtectionDomain;
using nova::testing::StubGuest;
using sim::FaultSite;
using TL = hwtask::TaskLibrary;

class DestroyStageTest : public ::testing::Test {
 protected:
  DestroyStageTest()
      // Fault sites default to p = 0: injection is inert until a test arms
      // a site.
      : platform_(PlatformConfig{.fault = {.enabled = true}}),
        kernel_(platform_), manager_(kernel_), insp_(kernel_),
        suite_(insp_, &manager_) {
    manager_.install(/*priority=*/6);
    SchedConfig sc;
    sc.priorities = true;
    sc.queue_depth = 4;
    sc.cache_capacity = 2;
    manager_.set_sched_config(sc);
    low0_ = &kernel_.create_vm("low0", 1, std::make_unique<StubGuest>());
    low1_ = &kernel_.create_vm("low1", 1, std::make_unique<StubGuest>());
    high_ = &kernel_.create_vm("high", 3, std::make_unique<StubGuest>());
    kernel_.run_for_us(200);
  }

  nova::HypercallResult request(ProtectionDomain& pd, hwtask::TaskId task) {
    GuestContext ctx(kernel_, pd, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskRequest, task,
                         nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  }

  u32 poll(ProtectionDomain& pd) {
    GuestContext ctx(kernel_, pd, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskQuery, nova::kHwQueryReconfig, 0)
        .r1;
  }

  void drain_events(double ms = 30.0) {
    const cycles_t end =
        platform_.clock().now() + platform_.clock().ms_to_cycles(ms);
    cycles_t dl;
    while (platform_.events().next_deadline(dl) && dl < end) {
      platform_.clock().advance_to(dl);
      platform_.pump();
    }
  }

  void expect_suite_clean(const char* where) {
    auto v = suite_.check_cheap();
    for (auto& h : suite_.check_heavy()) v.push_back(std::move(h));
    EXPECT_TRUE(v.empty()) << where << ": [" +
                                  std::string(oracle_name(v.front().oracle)) +
                                  "] " + v.front().detail;
  }

  bool any_prr_owned_by(PdId client) const {
    for (u32 p = 0; p < manager_.num_prrs(); ++p)
      if (manager_.prr_entry(p).client == client) return true;
    return false;
  }

  u32 owned_prr(const ProtectionDomain& pd) const {
    for (u32 p = 0; p < manager_.num_prrs(); ++p)
      if (manager_.prr_entry(p).client == pd.id()) return p;
    return manager_.num_prrs();
  }

  /// Start a hardware job on `prr` through the owner's register group.
  void start_job(u32 prr, const ProtectionDomain& owner) {
    auto& ctl = platform_.prr_controller();
    const paddr_t data = owner.hw_data_pa;
    platform_.bus().write32(ctl.reg_group_pa(prr) + pl::kRegSrcAddr, data);
    platform_.bus().write32(ctl.reg_group_pa(prr) + pl::kRegSrcLen, 64);
    platform_.bus().write32(ctl.reg_group_pa(prr) + pl::kRegDstAddr,
                            data + 0x8000);
    platform_.bus().write32(mem::kPrrGlobalRegsBase + pl::kGlobPrrSelect, prr);
    platform_.bus().write32(mem::kPrrGlobalRegsBase + pl::kGlobHwmmuBase,
                            data);
    platform_.bus().write32(mem::kPrrGlobalRegsBase + pl::kGlobHwmmuSize,
                            owner.hw_data_size);
    platform_.bus().write32(ctl.reg_group_pa(prr) + pl::kRegCtrl,
                            pl::kCtrlStart);
    ASSERT_TRUE(platform_.prr_controller().prr(prr).busy);
  }

  /// A fresh VM can take a (now free) region: the death-reclaim actually
  /// returned it to the pool rather than wedging it on the dead client.
  void expect_region_recyclable() {
    ProtectionDomain& fresh =
        kernel_.create_vm("fresh", 2, std::make_unique<StubGuest>());
    kernel_.run_for_us(200);
    ASSERT_TRUE(request(fresh, TL::kFft256).ok());
    drain_events();
    EXPECT_LT(owned_prr(fresh), manager_.num_prrs());
    expect_suite_clean("fresh VM granted after reclaim");
  }

  Platform platform_;
  nova::Kernel kernel_;
  ManagerService manager_;
  KernelInspector insp_;
  InvariantSuite suite_;
  ProtectionDomain* low0_ = nullptr;
  ProtectionDomain* low1_ = nullptr;
  ProtectionDomain* high_ = nullptr;
};

// Stage: victim idle and resident — the common case. Region unbinds on
// death, cache may keep the bitstream, nothing references the dead id.
TEST_F(DestroyStageTest, VictimIdleResident) {
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());
  drain_events();
  const PdId victim = low0_->id();
  ASSERT_EQ(owned_prr(*low0_), 0u);
  expect_suite_clean("after setup");

  ASSERT_TRUE(kernel_.destroy_vm(victim));
  EXPECT_FALSE(any_prr_owned_by(victim));
  expect_suite_clean("after idle-resident destroy");
  drain_events();
  expect_suite_clean("after drain");
  expect_region_recyclable();
}

// Stage: victim parked in the admission queue (kHwGrantQueued). Death must
// drop the queued request — a later queue pump may not grant to a dead VM.
TEST_F(DestroyStageTest, VictimQueued) {
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());
  drain_events();
  ASSERT_TRUE(request(*low1_, TL::kFft512).ok());
  drain_events();
  start_job(0, *low0_);
  start_job(1, *low1_);

  // Busy fabric: the high request parks in the queue.
  const auto res = request(*high_, TL::kFft1024);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.r1, nova::kHwGrantQueued);
  const PdId victim = high_->id();
  const auto wait_grants_before = manager_.stats().wait_grants;

  ASSERT_TRUE(kernel_.destroy_vm(victim));
  expect_suite_clean("after queued destroy");

  // Jobs complete, the completion observer pumps the queue: the dead
  // entry must be skipped, never granted.
  drain_events();
  EXPECT_FALSE(any_prr_owned_by(victim));
  EXPECT_EQ(manager_.stats().wait_grants, wait_grants_before);
  expect_suite_clean("queue pumped past dead entry");
  expect_region_recyclable();
}

// Stage: victim's own PCAP stream is still in flight. The death hook must
// cope with a region mid-download — the completion event fires after the
// owner is gone.
TEST_F(DestroyStageTest, VictimMidPcapStream) {
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());  // streaming into PRR...
  ASSERT_TRUE(platform_.pcap().busy());
  const PdId victim = low0_->id();

  ASSERT_TRUE(kernel_.destroy_vm(victim));
  expect_suite_clean("destroyed mid-stream");

  // The in-flight transfer's completion lands on a dead client: must be
  // absorbed without granting or crashing, leaving the region unbound.
  drain_events();
  EXPECT_FALSE(any_prr_owned_by(victim));
  expect_suite_clean("stream completion absorbed");
  expect_region_recyclable();
}

// Stage: victim waiting out a retry backoff after an injected PCAP fault.
// The pending retry event outlives the VM; it must abandon cleanly.
TEST_F(DestroyStageTest, VictimInRetryBackoff) {
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {0});
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());
  // Advance event-by-event until the transfer fails, then stop: the backoff
  // retry (~100 µs out) is scheduled but has not fired.
  cycles_t dl;
  while (manager_.stats().pcap_failures == 0 &&
         platform_.events().next_deadline(dl)) {
    platform_.clock().advance_to(dl);
    platform_.pump();
  }
  ASSERT_EQ(manager_.stats().pcap_failures, 1u);
  ASSERT_EQ(poll(*low0_), nova::kReconfigInFlight);
  const PdId victim = low0_->id();

  ASSERT_TRUE(kernel_.destroy_vm(victim));
  expect_suite_clean("destroyed in backoff");

  // The retry fires against the dead client: abandoned, not re-streamed.
  const auto failures_before = manager_.stats().pcap_failures;
  drain_events();
  EXPECT_FALSE(any_prr_owned_by(victim));
  EXPECT_EQ(manager_.stats().pcap_failures, failures_before);
  expect_suite_clean("retry abandoned");
  expect_region_recyclable();
}

// Cross-check: destroying one VM leaves a co-resident owner untouched in
// every way the suite can see.
TEST_F(DestroyStageTest, SurvivorKeepsItsRegionAcrossNeighbourDeath) {
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());
  drain_events();
  ASSERT_TRUE(request(*low1_, TL::kFft512).ok());
  drain_events();
  const u32 survivor_prr = owned_prr(*low1_);
  ASSERT_LT(survivor_prr, manager_.num_prrs());

  ASSERT_TRUE(kernel_.destroy_vm(low0_->id()));
  drain_events();
  EXPECT_EQ(owned_prr(*low1_), survivor_prr);
  EXPECT_EQ(poll(*low1_), nova::kReconfigReady);
  expect_suite_clean("survivor intact");

  // The survivor's accelerator still runs end to end.
  start_job(survivor_prr, *low1_);
  drain_events();
  EXPECT_FALSE(platform_.prr_controller().prr(survivor_prr).busy);
  expect_suite_clean("survivor job completed");
}

}  // namespace
}  // namespace minova::fuzz
