// Exhaustive preemption sweep: a higher-priority request arrives at every
// stage of the Fig. 7 pipeline a victim can occupy — idle resident, mid-PCAP
// stream, retry backoff after an injected transfer fault, hardware busy, and
// preemptor-side fault exhaustion. After each scenario the full fuzz
// invariant suite (ledger / save-restore / quota / cache-validity plus the
// kernel oracles) must be clean, and the victim either resumes from its
// §IV.C record or falls back cleanly.
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
using nova::HcStatus;
using nova::Hypercall;
using nova::KernelInspector;
using nova::ProtectionDomain;
using nova::testing::StubGuest;
using sim::FaultSite;
using TL = hwtask::TaskLibrary;

class PreemptSweepTest : public ::testing::Test {
 protected:
  PreemptSweepTest()
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

  nova::HypercallResult release(ProtectionDomain& pd, hwtask::TaskId task) {
    GuestContext ctx(kernel_, pd, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskRelease, task);
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

  u32 owned_prr(const ProtectionDomain& pd) const {
    for (u32 p = 0; p < manager_.num_prrs(); ++p)
      if (manager_.prr_entry(p).client == pd.id()) return p;
    return manager_.num_prrs();
  }

  u32 record_flag(const ProtectionDomain& pd) {
    return platform_.dram().read32(pd.hw_data_pa +
                                   hwmgr::consistency_offset(pd.hw_data_size));
  }

  /// Both large regions owned by the low-priority VMs, transfers settled.
  void occupy_large_regions() {
    ASSERT_TRUE(request(*low0_, TL::kFft256).ok());
    drain_events();
    ASSERT_TRUE(request(*low1_, TL::kFft512).ok());
    drain_events();
    ASSERT_EQ(owned_prr(*low0_), 0u);
    ASSERT_EQ(owned_prr(*low1_), 1u);
  }

  /// Start a hardware job on `prr` through the owner's register group, the
  /// way a guest would: program src/len/dst, reload the hwMMU window for the
  /// owner's data section, hit start.
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

  Platform platform_;
  nova::Kernel kernel_;
  ManagerService manager_;
  KernelInspector insp_;
  InvariantSuite suite_;
  ProtectionDomain* low0_ = nullptr;
  ProtectionDomain* low1_ = nullptr;
  ProtectionDomain* high_ = nullptr;
};

// Stage: victim idle and resident. The classic save/park/resume round trip.
TEST_F(PreemptSweepTest, VictimIdleResident) {
  occupy_large_regions();
  expect_suite_clean("after setup");

  ASSERT_EQ(request(*high_, TL::kFft1024).r1, nova::kHwGrantReconfig);
  EXPECT_EQ(manager_.stats().preemptions, 1u);
  EXPECT_EQ(record_flag(*low0_), hwmgr::kStateInconsistent);
  expect_suite_clean("preemptor transfer in flight");
  drain_events();
  expect_suite_clean("preemptor settled");

  ASSERT_TRUE(release(*high_, TL::kFft1024).ok());
  drain_events();
  EXPECT_EQ(manager_.stats().resumes, 1u);
  EXPECT_EQ(record_flag(*low0_), hwmgr::kStateConsistent);
  EXPECT_EQ(poll(*low0_), nova::kReconfigReady);
  expect_suite_clean("victim resumed");
}

// Stage: the victim's own PCAP stream is still in flight. A reconfiguring
// region is never preempted mid-download — the preemptor parks and takes the
// region once the fabric is quiescent again.
TEST_F(PreemptSweepTest, VictimMidPcapStream) {
  ASSERT_TRUE(request(*low1_, TL::kFft512).ok());
  drain_events();
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());  // streaming into PRR...
  ASSERT_TRUE(platform_.pcap().busy());

  const auto res = request(*high_, TL::kFft1024);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.r1, nova::kHwGrantQueued);  // parked, not an unsafe preempt
  EXPECT_EQ(manager_.stats().preemptions, 0u);
  expect_suite_clean("preemptor parked behind stream");

  // Stream completes -> the completion observer pumps the queue -> the
  // parked high-priority request now preempts a settled low owner.
  drain_events();
  EXPECT_EQ(manager_.stats().preemptions, 1u);
  EXPECT_EQ(manager_.stats().wait_grants, 1u);
  drain_events();
  EXPECT_LT(owned_prr(*high_), manager_.num_prrs());
  expect_suite_clean("after deferred preemption");

  // Both victims' records are in a legal state: the preempted one saved
  // (inconsistent, parked for resume), the untouched one consistent.
  ASSERT_TRUE(release(*high_, TL::kFft1024).ok());
  drain_events();
  expect_suite_clean("after release");
  EXPECT_GE(manager_.stats().resumes, 1u);
}

// Stage: the victim's transfer failed and its backoff retry is pending. The
// preemption abandons the dead retry and unbinds the region (the
// abandon_stale_reconfig path); the victim still resumes later.
TEST_F(PreemptSweepTest, VictimInRetryBackoff) {
  // Injection indices count per-site: 0 = low1's setup transfer (ok is
  // {1}: only low0's transfer fails).
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {1});
  ASSERT_TRUE(request(*low1_, TL::kFft512).ok());
  drain_events();
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());
  // Advance event-by-event until the transfer fails, then stop: the backoff
  // retry (~100 µs out) is now scheduled but has not fired.
  cycles_t dl;
  while (manager_.stats().pcap_failures == 0 &&
         platform_.events().next_deadline(dl)) {
    platform_.clock().advance_to(dl);
    platform_.pump();
  }
  ASSERT_EQ(manager_.stats().pcap_failures, 1u);
  ASSERT_EQ(poll(*low0_), nova::kReconfigInFlight);

  // Preempt the region whose owner is waiting on the retry.
  const auto res = request(*high_, TL::kFft1024);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(manager_.stats().preemptions, 1u);
  expect_suite_clean("preempted mid-backoff");
  drain_events();
  expect_suite_clean("preemptor settled");

  ASSERT_TRUE(release(*high_, TL::kFft1024).ok());
  drain_events();
  // The victim came back: re-granted (fresh download) and consistent.
  EXPECT_EQ(poll(*low0_), nova::kReconfigReady);
  EXPECT_EQ(record_flag(*low0_), hwmgr::kStateConsistent);
  expect_suite_clean("victim recovered from abandoned retry");
}

// Stage: the victim's accelerator is executing. A busy region is never
// preempted; with every region busy the request queues and is served when
// the fabric drains.
TEST_F(PreemptSweepTest, VictimHardwareBusy) {
  occupy_large_regions();
  start_job(0, *low0_);
  start_job(1, *low1_);

  const auto res = request(*high_, TL::kFft1024);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.r1, nova::kHwGrantQueued);
  EXPECT_EQ(manager_.stats().preemptions, 0u);
  expect_suite_clean("queued behind running jobs");

  drain_events();  // jobs complete
  // The poll itself pumps the wait queue: by the time it answers, the
  // deferred preemption has happened and the download is in flight.
  EXPECT_EQ(poll(*high_), nova::kReconfigInFlight);
  drain_events();
  EXPECT_EQ(manager_.stats().preemptions, 1u);
  EXPECT_EQ(manager_.stats().wait_grants, 1u);
  EXPECT_LT(owned_prr(*high_), manager_.num_prrs());
  EXPECT_EQ(poll(*high_), nova::kReconfigReady);
  expect_suite_clean("granted after jobs drained");
}

// Stage: fault exhaustion on the preemptor's own download. The victim was
// already parked; the preemptor falls back to software, and the victim is
// re-granted once the quarantined region cools down.
TEST_F(PreemptSweepTest, PreemptorFallsBackAfterFaultExhaustion) {
  // Injections 0/1 are the setup transfers; 2..5 kill the preemptor's
  // initial attempt and all three retries (RetryPolicy.max_attempts = 4).
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {2, 3, 4, 5});
  occupy_large_regions();

  ASSERT_EQ(request(*high_, TL::kFft1024).r1, nova::kHwGrantReconfig);
  EXPECT_EQ(manager_.stats().preemptions, 1u);
  drain_events();  // all four attempts fail
  EXPECT_EQ(manager_.stats().fallbacks, 1u);
  EXPECT_EQ(poll(*high_), nova::kReconfigFallback);
  expect_suite_clean("after preemptor fallback");

  // The victim's save is still parked. The burned region quarantines, so
  // give the cooldown time to expire, then poll (polls pump the queue).
  drain_events(200.0);
  (void)poll(*low0_);
  drain_events();
  EXPECT_EQ(poll(*low0_), nova::kReconfigReady);
  EXPECT_EQ(record_flag(*low0_), hwmgr::kStateConsistent);
  EXPECT_GE(manager_.stats().resumes, 1u);
  expect_suite_clean("victim recovered after quarantine");
}

// Control: a free compatible region means no preemption at all.
TEST_F(PreemptSweepTest, FreeRegionAvoidsPreemption) {
  ASSERT_TRUE(request(*low0_, TL::kFft256).ok());
  drain_events();
  ASSERT_EQ(request(*high_, TL::kFft1024).r1, nova::kHwGrantReconfig);
  drain_events();
  EXPECT_EQ(manager_.stats().preemptions, 0u);
  EXPECT_EQ(owned_prr(*low0_), 0u);
  EXPECT_EQ(owned_prr(*high_), 1u);
  expect_suite_clean("independent grants");
}

}  // namespace
}  // namespace minova::fuzz
