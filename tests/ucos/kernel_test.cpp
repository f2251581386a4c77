// uC/OS-II-style kernel semantics: unique priorities, preemptive
// highest-ready scheduling and delays.
#include "ucos/kernel.hpp"

#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "nova/kmem.hpp"

namespace minova::ucos {
namespace {

/// Direct-to-core Services for unit tests (flat addressing, MMU off).
class TestSvc final : public workloads::Services {
 public:
  explicit TestSvc(Platform& p) : p_(p) {}
  void exec(const cpu::CodeRegion& r, double f) override {
    p_.cpu().exec_code(r, f);
  }
  void spend_insns(u64 n) override { p_.cpu().spend_insns(n); }
  bool read32(vaddr_t va, u32& out) override {
    auto r = p_.cpu().vread32(va);
    out = r.value;
    return r.ok;
  }
  bool write32(vaddr_t va, u32 v) override { return p_.cpu().vwrite32(va, v).ok; }
  bool read_block(vaddr_t va, std::span<u8> out) override {
    return p_.cpu().vread_block(va, out).ok;
  }
  bool write_block(vaddr_t va, std::span<const u8> in) override {
    return p_.cpu().vwrite_block(va, in).ok;
  }
  double now_us() override { return p_.clock().now_us(); }
  workloads::HwReqStatus hw_request(u32, vaddr_t, vaddr_t) override {
    return workloads::HwReqStatus::kError;
  }
  bool hw_release(u32) override { return false; }
  workloads::ReconfigStatus hw_reconfig_status() override {
    return workloads::ReconfigStatus::kReady;
  }
  bool hw_take_completion() override { return false; }
  vaddr_t hw_iface_va() const override { return 0; }
  vaddr_t hw_data_va() const override { return 0; }
  paddr_t hw_data_pa() const override { return 0; }
  u32 hw_data_size() const override { return 0; }

 private:
  Platform& p_;
};

class UcosTest : public ::testing::Test {
 protected:
  UcosTest()
      : code_(nova::vm_phys_base(0) + 0x10000, 64 * kKiB),
        os_("test-os", code_),
        svc_(platform_) {}

  Platform platform_;
  cpu::CodeLayout code_;
  Kernel os_;
  TestSvc svc_;
};

TEST_F(UcosTest, IdleWhenNoTasks) {
  EXPECT_FALSE(os_.run_one_unit(svc_));
}

TEST_F(UcosTest, HighestPriorityTaskRunsFirst) {
  std::vector<int> order;
  os_.create_task("low", 10, [&](TaskCtx& t) {
    order.push_back(10);
    t.dly(100);
  });
  os_.create_task("high", 3, [&](TaskCtx& t) {
    order.push_back(3);
    t.dly(100);
  });
  os_.run_one_unit(svc_);
  os_.run_one_unit(svc_);
  EXPECT_EQ(order, (std::vector<int>{3, 10}));
}

TEST_F(UcosTest, UniquePriorityEnforced) {
  os_.create_task("a", 5, [](TaskCtx&) {});
  EXPECT_DEATH(os_.create_task("b", 5, [](TaskCtx&) {}), "unique");
}

TEST_F(UcosTest, DelayBlocksUntilTicks) {
  int runs = 0;
  os_.create_task("t", 5, [&](TaskCtx& t) {
    ++runs;
    t.dly(3);
  });
  EXPECT_TRUE(os_.run_one_unit(svc_));
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(os_.run_one_unit(svc_));  // delayed
  os_.tick(svc_);
  os_.tick(svc_);
  EXPECT_FALSE(os_.run_one_unit(svc_));  // still 1 tick left
  os_.tick(svc_);
  EXPECT_TRUE(os_.run_one_unit(svc_));
  EXPECT_EQ(runs, 2);
}

TEST_F(UcosTest, DlyZeroStillYieldsOneTick) {
  os_.create_task("t", 5, [&](TaskCtx& t) { t.dly(0); });
  os_.run_one_unit(svc_);
  EXPECT_FALSE(os_.run_one_unit(svc_));
  os_.tick(svc_);
  EXPECT_TRUE(os_.run_one_unit(svc_));
}

TEST_F(UcosTest, PreemptionAtUnitBoundary) {
  // A delayed high-priority task wakes mid-run and takes over from a
  // lower-priority busy loop at the next unit boundary.
  std::vector<int> order;
  os_.create_task("high", 2, [&](TaskCtx& t) {
    order.push_back(2);
    t.dly(2);
  });
  os_.create_task("busy", 9, [&](TaskCtx&) { order.push_back(9); });
  os_.run_one_unit(svc_);  // high
  os_.run_one_unit(svc_);  // busy (high delayed)
  os_.run_one_unit(svc_);  // busy
  os_.tick(svc_);
  os_.tick(svc_);          // high wakes
  os_.run_one_unit(svc_);  // high preempts
  EXPECT_EQ(order, (std::vector<int>{2, 9, 9, 2}));
}

TEST_F(UcosTest, StatsTrackActivity) {
  os_.create_task("a", 5, [](TaskCtx& t) { t.dly(1); });
  os_.create_task("b", 6, [](TaskCtx& t) { t.dly(1); });
  os_.run_one_unit(svc_);
  os_.run_one_unit(svc_);
  os_.tick(svc_);
  const auto& st = os_.stats();
  EXPECT_EQ(st.units_run, 2u);
  EXPECT_EQ(st.ticks, 1u);
  EXPECT_EQ(st.context_switches, 2u);  // a then b
}

TEST_F(UcosTest, UnitsCostSimulatedTime) {
  os_.create_task("a", 5, [](TaskCtx& t) { t.svc().spend_insns(1000); });
  const cycles_t t0 = platform_.clock().now();
  os_.run_one_unit(svc_);
  EXPECT_GT(platform_.clock().now() - t0, 1000u);
}

}  // namespace
}  // namespace minova::ucos
