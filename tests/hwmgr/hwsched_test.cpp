// PRR scheduler (DESIGN.md §15): per-request priorities with preemptive
// reclaim over the §IV.C consistency-record save path, the admission queue
// (kBusy only on true saturation), per-VM quotas, and the resume-from-saved-
// registers round trip — all exercised through the real hypercall gate.
#include "hwmgr/manager.hpp"

#include <gtest/gtest.h>

#include "../nova/stub_guest.hpp"
#include "mmu/descriptors.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"

namespace minova::hwmgr {
namespace {

using nova::GuestContext;
using nova::HcStatus;
using nova::Hypercall;
using nova::testing::StubGuest;

class HwSchedTest : public ::testing::Test {
 protected:
  HwSchedTest() : kernel_(platform_), manager_(kernel_) {
    manager_.install(/*priority=*/6);
    SchedConfig sc;
    sc.priorities = true;
    sc.cache_capacity = 4;
    sc.prefetch = true;
    sc.queue_depth = 4;
    manager_.set_sched_config(sc);
    // Two low-priority owners and one high-priority latecomer.
    low0_ = &kernel_.create_vm("low0", 1, std::make_unique<StubGuest>());
    low1_ = &kernel_.create_vm("low1", 1, std::make_unique<StubGuest>());
    high_ = &kernel_.create_vm("high", 3, std::make_unique<StubGuest>());
    kernel_.run_for_us(200);
  }

  nova::HypercallResult request(nova::ProtectionDomain& pd,
                                hwtask::TaskId task,
                                vaddr_t iface = nova::kGuestHwIfaceVa) {
    GuestContext ctx(kernel_, pd, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskRequest, task, iface,
                         nova::kGuestHwDataVa);
  }

  nova::HypercallResult release(nova::ProtectionDomain& pd,
                                hwtask::TaskId task) {
    GuestContext ctx(kernel_, pd, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskRelease, task);
  }

  nova::HypercallResult query(nova::ProtectionDomain& pd, u32 sub,
                              u32 arg = 0) {
    GuestContext ctx(kernel_, pd, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskQuery, sub, arg);
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

  /// Fill both large (FFT-capable) regions with the low-priority owners:
  /// low0 lands on PRR0, low1 on PRR1 (dark regions are taken in index
  /// order), leaving any further FFT request to contend.
  void occupy_large_regions() {
    ASSERT_TRUE(request(*low0_, hwtask::TaskLibrary::kFft256).ok());
    drain_events();
    ASSERT_TRUE(request(*low1_, hwtask::TaskLibrary::kFft512).ok());
    drain_events();
    ASSERT_EQ(owned_prr(*low0_), 0u);
    ASSERT_EQ(owned_prr(*low1_), 1u);
  }

  /// PRR index currently owned by `pd`, or num_prrs() when it owns none.
  u32 owned_prr(const nova::ProtectionDomain& pd) const {
    for (u32 p = 0; p < manager_.num_prrs(); ++p)
      if (manager_.prr_entry(p).client == pd.id()) return p;
    return manager_.num_prrs();
  }

  u32 record_flag(const nova::ProtectionDomain& pd) {
    return platform_.dram().read32(pd.hw_data_pa +
                                   consistency_offset(pd.hw_data_size));
  }

  Platform platform_;
  nova::Kernel kernel_;
  ManagerService manager_;
  nova::ProtectionDomain* low0_ = nullptr;
  nova::ProtectionDomain* low1_ = nullptr;
  nova::ProtectionDomain* high_ = nullptr;
};

TEST_F(HwSchedTest, HigherPriorityPreemptsLowerOwnerAndVictimResumes) {
  occupy_large_regions();

  // The high-priority latecomer evicts the PRR0 owner (§IV.C save path).
  const auto res = request(*high_, hwtask::TaskLibrary::kFft1024);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.r1, nova::kHwGrantReconfig);
  EXPECT_EQ(manager_.stats().preemptions, 1u);
  EXPECT_EQ(owned_prr(*high_), 0u);

  // The victim is parked for a resume, its record flagged inconsistent.
  ASSERT_EQ(manager_.wait_queue().size(), 1u);
  EXPECT_EQ(manager_.wait_queue().front().client, low0_->id());
  EXPECT_TRUE(manager_.wait_queue().front().resume);
  EXPECT_EQ(record_flag(*low0_), kStateInconsistent);
  EXPECT_EQ(query(*low0_, nova::kHwQueryReconfig).r1, nova::kReconfigQueued);
  drain_events();

  // Freeing the high-priority region hands it back to the parked victim.
  ASSERT_TRUE(release(*high_, hwtask::TaskLibrary::kFft1024).ok());
  drain_events();
  EXPECT_EQ(manager_.stats().wait_grants, 1u);
  EXPECT_EQ(manager_.stats().resumes, 1u);
  EXPECT_TRUE(manager_.wait_queue().empty());
  EXPECT_LT(owned_prr(*low0_), manager_.num_prrs());
  EXPECT_EQ(record_flag(*low0_), kStateConsistent);
  EXPECT_EQ(query(*low0_, nova::kHwQueryReconfig).r1, nova::kReconfigReady);
}

TEST_F(HwSchedTest, PreemptionRoundTripsInterfaceRegisters) {
  occupy_large_regions();

  // Program distinctive values into the victim's writable interface
  // registers (words 3-5: src/len/dst — ctrl stays unset, so nothing
  // launches; words 6-7 are read-only results).
  const paddr_t rg = platform_.prr_controller().reg_group_pa(0);
  for (u32 w = 3; w < 6; ++w)
    platform_.bus().write32(rg + w * 4, 0xCAFE'0000u + w);

  ASSERT_TRUE(request(*high_, hwtask::TaskLibrary::kFft1024).ok());
  ASSERT_EQ(manager_.stats().preemptions, 1u);
  // The §IV.C record carries the register image (words at offset 8).
  const paddr_t rec =
      low0_->hw_data_pa + consistency_offset(low0_->hw_data_size);
  for (u32 w = 3; w < 6; ++w)
    EXPECT_EQ(platform_.dram().read32(rec + 8 + w * 4), 0xCAFE'0000u + w);
  ASSERT_EQ(manager_.saved_contexts().count(low0_->id()), 1u);
  const auto hypercall_save = manager_.saved_contexts().at(low0_->id());
  std::array<u32, kConsistencyWords> hypercall_record{};
  for (u32 w = 0; w < kConsistencyWords; ++w)
    hypercall_record[w] = platform_.dram().read32(rec + w * 4);
  drain_events();

  // Resume: the saved image lands back in the re-granted region's group.
  ASSERT_TRUE(release(*high_, hwtask::TaskLibrary::kFft1024).ok());
  drain_events();
  EXPECT_EQ(manager_.stats().resumes, 1u);
  const u32 back = owned_prr(*low0_);
  ASSERT_LT(back, manager_.num_prrs());
  const paddr_t rg2 = platform_.prr_controller().reg_group_pa(back);
  for (u32 w = 3; w < 6; ++w) {
    u32 v = 0;
    (void)platform_.bus().read32(rg2 + w * 4, v);
    EXPECT_EQ(v, 0xCAFE'0000u + w) << "register " << w;
  }

  // Second leg: the same preemption from the wait-queue pump (event
  // context, no charge) must write the same record. The latecomer queues at
  // the owners' priority, is raised above them while parked, and the next
  // query pumps the queue into a preemption of the resumed victim.
  ASSERT_TRUE(query(*high_, nova::kHwQuerySetPrio, 1).ok());
  ASSERT_EQ(request(*high_, hwtask::TaskLibrary::kFft1024).r1,
            nova::kHwGrantQueued);
  ASSERT_EQ(manager_.stats().preemptions, 1u);
  ASSERT_TRUE(query(*high_, nova::kHwQuerySetPrio, 5).ok());
  ASSERT_EQ(manager_.stats().preemptions, 1u);  // raising alone never pumps
  (void)query(*high_, nova::kHwQueryReconfig);
  ASSERT_EQ(manager_.stats().preemptions, 2u);
  EXPECT_EQ(owned_prr(*high_), back);
  EXPECT_EQ(record_flag(*low0_), kStateInconsistent);
  for (u32 w = 0; w < kConsistencyWords; ++w)
    EXPECT_EQ(platform_.dram().read32(rec + w * 4), hypercall_record[w])
        << "record word " << w;
  ASSERT_EQ(manager_.saved_contexts().count(low0_->id()), 1u);
  const auto pump_save = manager_.saved_contexts().at(low0_->id());
  EXPECT_EQ(pump_save.task, hypercall_save.task);
  EXPECT_EQ(pump_save.regs, hypercall_save.regs);
  for (u32 w = 3; w < 6; ++w)
    EXPECT_EQ(pump_save.regs[w], 0xCAFE'0000u + w) << "register " << w;
}

TEST_F(HwSchedTest, EqualPriorityDoesNotPreemptButQueues) {
  occupy_large_regions();
  // Drop the latecomer's hardware-task priority to the owners' level: no
  // takeover candidate remains, so the request parks instead of evicting.
  ASSERT_TRUE(query(*high_, nova::kHwQuerySetPrio, 1).ok());
  const auto res = request(*high_, hwtask::TaskLibrary::kFft1024);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.r1, nova::kHwGrantQueued);
  EXPECT_EQ(manager_.stats().preemptions, 0u);
  EXPECT_EQ(manager_.stats().enqueued, 1u);
}

TEST_F(HwSchedTest, SetPrioHypercallRestoresPreemptability) {
  occupy_large_regions();
  ASSERT_TRUE(query(*high_, nova::kHwQuerySetPrio, 1).ok());
  ASSERT_EQ(request(*high_, hwtask::TaskLibrary::kFft1024).r1,
            nova::kHwGrantQueued);
  // Raising the override turns the next (fresh) request into a preemption;
  // it supersedes the parked one.
  ASSERT_TRUE(query(*high_, nova::kHwQuerySetPrio, 5).ok());
  const auto res = request(*high_, hwtask::TaskLibrary::kFft2048);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.r1, nova::kHwGrantReconfig);
  EXPECT_EQ(manager_.stats().preemptions, 1u);
  // PRR0's owner was the victim; the superseded queued request is gone.
  EXPECT_EQ(owned_prr(*high_), 0u);
  ASSERT_EQ(manager_.wait_queue().size(), 1u);
  EXPECT_EQ(manager_.wait_queue().front().client, low0_->id());
}

TEST_F(HwSchedTest, PcapContentionParksInsteadOfBusy) {
  // First transfer is streaming; the second request needs the port.
  ASSERT_TRUE(request(*low0_, hwtask::TaskLibrary::kFft256).ok());
  ASSERT_TRUE(platform_.pcap().busy());
  const auto res = request(*low1_, hwtask::TaskLibrary::kFft512);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.r1, nova::kHwGrantQueued);
  EXPECT_EQ(manager_.stats().enqueued, 1u);
  EXPECT_EQ(query(*low1_, nova::kHwQueryReconfig).r1, nova::kReconfigQueued);
  drain_events();
  // The completion observer pumps the wait queue once the port frees.
  EXPECT_EQ(manager_.stats().wait_grants, 1u);
  EXPECT_LT(owned_prr(*low1_), manager_.num_prrs());
  EXPECT_EQ(query(*low1_, nova::kHwQueryReconfig).r1, nova::kReconfigReady);
}

TEST_F(HwSchedTest, QueueDepthBoundsAdmission) {
  SchedConfig sc = manager_.sched_config();
  sc.queue_depth = 1;
  manager_.set_sched_config(sc);
  ASSERT_TRUE(request(*low0_, hwtask::TaskLibrary::kFft256).ok());
  ASSERT_TRUE(platform_.pcap().busy());
  // One slot: the first contender parks, the second sees true saturation.
  EXPECT_EQ(request(*low1_, hwtask::TaskLibrary::kFft512).r1,
            nova::kHwGrantQueued);
  EXPECT_EQ(request(*high_, hwtask::TaskLibrary::kFft1024).status,
            HcStatus::kBusy);
  EXPECT_GE(manager_.stats().busy_rejections, 1u);
}

TEST_F(HwSchedTest, QueuedRerequestIsIdempotent) {
  ASSERT_TRUE(request(*low0_, hwtask::TaskLibrary::kFft256).ok());
  ASSERT_TRUE(platform_.pcap().busy());
  ASSERT_EQ(request(*low1_, hwtask::TaskLibrary::kFft512).r1,
            nova::kHwGrantQueued);
  // Polling by re-issuing the same request does not grow the queue.
  ASSERT_EQ(request(*low1_, hwtask::TaskLibrary::kFft512).r1,
            nova::kHwGrantQueued);
  EXPECT_EQ(manager_.stats().enqueued, 1u);
  EXPECT_EQ(manager_.wait_queue().size(), 1u);
}

TEST_F(HwSchedTest, QuotaBouncesNetNewGrantButAllowsInPlace) {
  SchedConfig sc = manager_.sched_config();
  sc.default_quota = 1;
  manager_.set_sched_config(sc);
  ASSERT_TRUE(request(*low0_, hwtask::TaskLibrary::kQam4).ok());
  drain_events();
  // A second region would exceed the quota.
  EXPECT_EQ(request(*low0_, hwtask::TaskLibrary::kQam16,
                    nova::kGuestHwIfaceVa + mmu::kPageSize)
                .status,
            HcStatus::kBusy);
  EXPECT_GE(manager_.stats().quota_rejections, 1u);
  // Re-dispatching the resident task replaces in place: no growth, allowed.
  EXPECT_TRUE(request(*low0_, hwtask::TaskLibrary::kQam4).ok());
  // The query ABI packs (quota << 16) | grants_in_use.
  EXPECT_EQ(query(*low0_, nova::kHwQueryQuota).r1, (1u << 16) | 1u);
  // Releasing frees the slot for a different task.
  ASSERT_TRUE(release(*low0_, hwtask::TaskLibrary::kQam4).ok());
  EXPECT_TRUE(request(*low0_, hwtask::TaskLibrary::kQam16).ok());
}

TEST_F(HwSchedTest, PerVmQuotaOverrideBeatsDefault) {
  SchedConfig sc = manager_.sched_config();
  sc.default_quota = 1;
  manager_.set_sched_config(sc);
  manager_.set_vm_quota(low0_->id(), 2);
  ASSERT_TRUE(request(*low0_, hwtask::TaskLibrary::kQam4).ok());
  drain_events();
  EXPECT_TRUE(request(*low0_, hwtask::TaskLibrary::kQam16,
                      nova::kGuestHwIfaceVa + mmu::kPageSize)
                  .ok());
  EXPECT_EQ(query(*low0_, nova::kHwQueryQuota).r1, (2u << 16) | 2u);
}

TEST_F(HwSchedTest, DefaultConfigKeepsLegacyBusyBehaviour) {
  manager_.set_sched_config(SchedConfig{});  // everything off
  ASSERT_TRUE(request(*low0_, hwtask::TaskLibrary::kFft256).ok());
  ASSERT_TRUE(platform_.pcap().busy());
  // Legacy: port contention is an immediate Busy, nothing queues.
  EXPECT_EQ(request(*low1_, hwtask::TaskLibrary::kFft512).status,
            HcStatus::kBusy);
  EXPECT_TRUE(manager_.wait_queue().empty());
  EXPECT_EQ(manager_.stats().enqueued, 0u);
  EXPECT_EQ(manager_.stats().cache_hits + manager_.stats().cache_misses, 0u);
}

}  // namespace
}  // namespace minova::hwmgr
