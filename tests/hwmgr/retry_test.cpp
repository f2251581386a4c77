// Retry / backoff / quarantine / fallback machinery of the Hardware Task
// Manager under deterministic fault injection (DESIGN.md §8), exercised
// through the real hypercall gate and the real PCAP completion observer.
#include <gtest/gtest.h>

#include <vector>

#include "../nova/stub_guest.hpp"
#include "hwmgr/manager.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace minova::hwmgr {
namespace {

using nova::GuestContext;
using nova::HcStatus;
using nova::Hypercall;
using nova::testing::StubGuest;
using sim::FaultSite;

class RetryTest : public ::testing::Test {
 protected:
  // Fault sites default to p = 0: injection is inert until a test arms a
  // site.
  explicit RetryTest(PlatformConfig pcfg = {.fault = {.enabled = true}})
      : platform_(pcfg), kernel_(platform_), manager_(kernel_) {
    manager_.install(/*priority=*/2);
    pd0_ = &kernel_.create_vm("vm0", 1, std::make_unique<StubGuest>());
    kernel_.run_for_us(100);
  }

  nova::HypercallResult request(hwtask::TaskId task) {
    GuestContext ctx(kernel_, *pd0_, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskRequest, task,
                         nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  }

  /// Run device events for `ms` simulated milliseconds (bounded: the kernel
  /// tick reloads forever, so "until quiet" never terminates).
  void drain_events(double ms = 30.0) {
    const cycles_t end =
        platform_.clock().now() + platform_.clock().ms_to_cycles(ms);
    cycles_t dl;
    while (platform_.events().next_deadline(dl) && dl < end) {
      platform_.clock().advance_to(dl);
      platform_.pump();
    }
  }

  /// PRR granted to pd0, or num_prrs() when none.
  u32 granted_prr() const {
    for (u32 p = 0; p < manager_.num_prrs(); ++p)
      if (manager_.prr_entry(p).client == pd0_->id()) return p;
    return manager_.num_prrs();
  }

  std::vector<cycles_t> pcap_start_times() {
    std::vector<cycles_t> times;
    for (const auto& ev : platform_.trace().snapshot())
      if (ev.kind == sim::TraceKind::kPcapStart) times.push_back(ev.when);
    return times;
  }

  Platform platform_;
  nova::Kernel kernel_;
  ManagerService manager_;
  nova::ProtectionDomain* pd0_ = nullptr;
};

TEST_F(RetryTest, TransientHypercallFailureIsAgainAndDispatchesNothing) {
  platform_.fault().set_schedule(FaultSite::kHypercallTransient, {0});

  const auto res = request(hwtask::TaskLibrary::kQam4);
  EXPECT_EQ(res.status, HcStatus::kAgain);
  EXPECT_FALSE(platform_.pcap().busy());      // nothing reached the service
  EXPECT_EQ(manager_.stats().requests, 0u);

  // The caller simply reissues; the next attempt goes through.
  const auto retry = request(hwtask::TaskLibrary::kQam4);
  ASSERT_EQ(retry.status, HcStatus::kSuccess);
  EXPECT_EQ(retry.r1, nova::kHwGrantReconfig);
  EXPECT_EQ(platform_.stats().counter_value(
                "fault.hypercall_transient.injected"),
            1u);
}

TEST_F(RetryTest, FailedTransferRetriesOnSameRegionAndRecovers) {
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {0});

  ASSERT_EQ(request(hwtask::TaskLibrary::kQam4).r1, nova::kHwGrantReconfig);
  const u32 prr = granted_prr();
  ASSERT_LT(prr, manager_.num_prrs());

  EXPECT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigInFlight);
  drain_events();

  EXPECT_EQ(platform_.pcap().crc_errors(), 1u);
  EXPECT_EQ(manager_.stats().pcap_failures, 1u);
  EXPECT_EQ(manager_.stats().retries, 1u);
  EXPECT_EQ(manager_.stats().fallbacks, 0u);
  EXPECT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigReady);
  // The retry stayed on the originally granted region and configured it.
  EXPECT_EQ(granted_prr(), prr);
  EXPECT_EQ(platform_.prr_controller().prr(prr).loaded_task,
            u32(hwtask::TaskLibrary::kQam4));
  EXPECT_EQ(manager_.prr_health(prr), PrrHealth::kHealthy);  // streak reset
}

TEST_F(RetryTest, BackoffDelaysGrowExponentially) {
  // Three consecutive CRC failures, then success on the 4th attempt. The
  // event queue is deterministic, so the retry spacing can be asserted
  // exactly: consecutive PCAP start times differ by (transfer time +
  // backoff), and the backoff doubles each round.
  manager_.set_retry_policy({.max_attempts = 4,
                             .backoff_base_us = 100.0,
                             .backoff_factor = 2.0,
                             .quarantine_threshold = 10,
                             .quarantine_us = 50'000.0});
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {0, 1, 2});
  platform_.trace().set_enabled(true);

  ASSERT_EQ(request(hwtask::TaskLibrary::kQam4).r1, nova::kHwGrantReconfig);
  drain_events();

  ASSERT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigReady);
  const auto starts = pcap_start_times();
  ASSERT_EQ(starts.size(), 4u);
  const cycles_t g1 = starts[1] - starts[0];
  const cycles_t g2 = starts[2] - starts[1];
  const cycles_t g3 = starts[3] - starts[2];
  // Same bitstream each attempt => identical transfer time; the gap growth
  // is purely the exponential backoff.
  EXPECT_EQ(g2 - g1, platform_.clock().us_to_cycles(100.0));
  EXPECT_EQ(g3 - g2, platform_.clock().us_to_cycles(200.0));
  EXPECT_EQ(manager_.stats().retries, 3u);
}

TEST_F(RetryTest, RepeatedFailuresQuarantineRegionAndDeclareFallback) {
  manager_.set_retry_policy({.max_attempts = 2,
                             .backoff_base_us = 100.0,
                             .backoff_factor = 2.0,
                             .quarantine_threshold = 2,
                             .quarantine_us = 50'000.0});
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {0, 1});

  ASSERT_EQ(request(hwtask::TaskLibrary::kQam4).r1, nova::kHwGrantReconfig);
  const u32 prr = granted_prr();
  ASSERT_LT(prr, manager_.num_prrs());
  drain_events(10.0);  // both attempts fail well inside 10 ms

  EXPECT_EQ(manager_.stats().pcap_failures, 2u);
  EXPECT_EQ(manager_.stats().quarantines, 1u);
  EXPECT_EQ(manager_.stats().fallbacks, 1u);
  EXPECT_EQ(manager_.prr_health(prr), PrrHealth::kQuarantined);
  // The grant degraded: the client polls kFallback and the dark region was
  // unbound from it.
  EXPECT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigFallback);
  EXPECT_EQ(manager_.prr_entry(prr).client, nova::kInvalidPd);
}

TEST_F(RetryTest, QuarantineExpiresIntoSuspectAndHealsOnSuccess) {
  manager_.set_retry_policy({.max_attempts = 2,
                             .backoff_base_us = 100.0,
                             .backoff_factor = 2.0,
                             .quarantine_threshold = 2,
                             .quarantine_us = 20'000.0});
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {0, 1});

  ASSERT_EQ(request(hwtask::TaskLibrary::kQam4).r1, nova::kHwGrantReconfig);
  const u32 prr = granted_prr();
  drain_events(10.0);  // both failed attempts, still inside the cooldown
  ASSERT_EQ(manager_.prr_health(prr), PrrHealth::kQuarantined);

  drain_events(30.0);  // past the 20 ms cooldown
  EXPECT_EQ(manager_.prr_health(prr), PrrHealth::kSuspect);
  EXPECT_EQ(manager_.stats().unquarantines, 1u);
}

// Single-region floorplan: once the only region is quarantined, a new
// request cannot be granted hardware at all and degrades up front.
class SingleRegionRetryTest : public RetryTest {
 protected:
  static PlatformConfig single_region() {
    PlatformConfig cfg;
    cfg.fault.enabled = true;
    cfg.large_prrs = 1;
    cfg.small_prrs = 0;
    return cfg;
  }
  SingleRegionRetryTest() : RetryTest(single_region()) {}
};

TEST_F(SingleRegionRetryTest, AllRegionsQuarantinedGrantsSoftwareUpfront) {
  ASSERT_EQ(manager_.num_prrs(), 1u);
  manager_.set_retry_policy({.max_attempts = 2,
                             .backoff_base_us = 100.0,
                             .backoff_factor = 2.0,
                             .quarantine_threshold = 2,
                             .quarantine_us = 500'000.0});
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {0, 1});

  ASSERT_EQ(request(hwtask::TaskLibrary::kFft256).r1, nova::kHwGrantReconfig);
  drain_events(10.0);
  ASSERT_EQ(manager_.prr_health(0), PrrHealth::kQuarantined);
  ASSERT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigFallback);

  // With the whole floorplan quarantined the manager grants software
  // immediately instead of answering Busy forever.
  const auto res = request(hwtask::TaskLibrary::kFft512);
  ASSERT_EQ(res.status, HcStatus::kSuccess);
  EXPECT_EQ(res.r1, nova::kHwGrantSoftware);
  EXPECT_EQ(manager_.stats().sw_grants, 1u);
  EXPECT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigFallback);
}

TEST_F(RetryTest, ReconfigTimeoutFaultIsRetriedLikeACrcError) {
  platform_.fault().set_schedule(FaultSite::kPrrReconfigTimeout, {0});

  ASSERT_EQ(request(hwtask::TaskLibrary::kQam16).r1, nova::kHwGrantReconfig);
  drain_events();

  EXPECT_EQ(platform_.prr_controller().reconfig_timeouts(), 1u);
  EXPECT_EQ(manager_.stats().retries, 1u);
  EXPECT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigReady);
}

TEST_F(RetryTest, StallFaultDelaysButStillSucceeds) {
  platform_.fault().set_schedule(FaultSite::kPcapStall, {0});

  ASSERT_EQ(request(hwtask::TaskLibrary::kQam4).r1, nova::kHwGrantReconfig);
  const cycles_t t0 = platform_.clock().now();
  // Step the event queue and record when the stalled transfer finishes.
  cycles_t done_at = 0;
  const cycles_t end = t0 + platform_.clock().ms_to_cycles(30.0);
  cycles_t dl;
  while (platform_.events().next_deadline(dl) && dl < end) {
    platform_.clock().advance_to(dl);
    platform_.pump();
    if (done_at == 0 && !platform_.pcap().busy())
      done_at = platform_.clock().now();
  }

  EXPECT_EQ(platform_.pcap().stalls(), 1u);
  EXPECT_EQ(manager_.stats().pcap_failures, 0u);  // a stall is not a failure
  EXPECT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigReady);
  // The transfer completed, but only after at least the stall penalty.
  ASSERT_NE(done_at, 0u);
  EXPECT_GE(done_at - t0, platform_.fault().stall_cycles());
}

TEST_F(RetryTest, ReleaseForgetsPendingReconfigState) {
  platform_.fault().set_schedule(FaultSite::kPcapCrc, {0});
  ASSERT_EQ(request(hwtask::TaskLibrary::kQam4).r1, nova::kHwGrantReconfig);
  drain_events();
  ASSERT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigReady);

  GuestContext ctx(kernel_, *pd0_, platform_.cpu());
  ASSERT_EQ(ctx.hypercall(Hypercall::kHwTaskRelease,
                          hwtask::TaskLibrary::kQam4)
                .status,
            HcStatus::kSuccess);
  // With nothing pending the client reads Ready, not a stale outcome.
  EXPECT_EQ(manager_.query_reconfig(pd0_->id()), nova::kReconfigReady);
}

}  // namespace
}  // namespace minova::hwmgr
