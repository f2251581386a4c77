#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include "mmu/page_table.hpp"

namespace minova::cpu {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : dram_(0, 16 * kMiB), core_(clock_, dram_, bus_) {
    bus_.add_ram(&dram_);
  }

  void enable_mmu_with_flat_user_map() {
    alloc_ = std::make_unique<mmu::PageTableAllocator>(dram_, 1 * kMiB,
                                                       4 * kMiB);
    as_ = std::make_unique<mmu::AddressSpace>(dram_, *alloc_);
    // Identity-map the first 16 MB as full-access sections, domain 0.
    for (u32 mb = 0; mb < 16; ++mb)
      as_->map_section(mb << 20, mb << 20, mmu::MapAttrs{});
    core_.mmu().set_ttbr0(as_->root());
    core_.mmu().set_dacr(mmu::dacr_set(0, 0, mmu::DomainMode::kClient));
    core_.mmu().set_asid(1);
    core_.mmu().set_enabled(true);
  }

  sim::Clock clock_;
  mem::PhysMem dram_;
  mem::Bus bus_;
  Core core_;
  std::unique_ptr<mmu::PageTableAllocator> alloc_;
  std::unique_ptr<mmu::AddressSpace> as_;
};

TEST_F(CoreTest, ResetsIntoSvcWithIrqsMasked) {
  EXPECT_EQ(core_.mode(), Mode::kSvc);
  EXPECT_TRUE(core_.privileged());
  EXPECT_TRUE(core_.cpsr().irq_masked);
}

TEST_F(CoreTest, MmuOffReadWriteRoundTrip) {
  auto w = core_.vwrite32(0x1000, 0xCAFEBABE);
  EXPECT_TRUE(w.ok);
  auto r = core_.vread32(0x1000);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xCAFEBABEu);
  EXPECT_GT(clock_.now(), 0u);  // accesses cost cycles
}

TEST_F(CoreTest, MmuOnTranslatedAccess) {
  enable_mmu_with_flat_user_map();
  core_.cpsr().mode = Mode::kUsr;
  EXPECT_TRUE(core_.vwrite32(0x0080'0000u, 42).ok);
  EXPECT_EQ(core_.vread32(0x0080'0000u).value, 42u);
}

TEST_F(CoreTest, FaultReportedNotFatal) {
  enable_mmu_with_flat_user_map();
  // 0x0100'0000 (16 MB) is unmapped.
  const auto r = core_.vread32(0x0100'0000u);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.type, mmu::FaultType::kTranslationL1);
}

TEST_F(CoreTest, BusErrorBecomesExternalAbort) {
  const auto r = core_.vread32(0xA000'0000u);  // nothing mapped there
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.type, mmu::FaultType::kExternalAbort);
}

TEST_F(CoreTest, ExecCodeWarmsUp) {
  const CodeRegion region{0x8000, 1024};
  clock_.advance(0);
  const cycles_t t0 = clock_.now();
  core_.exec_code(region);
  const cycles_t cold = clock_.now() - t0;
  const cycles_t t1 = clock_.now();
  core_.exec_code(region);
  const cycles_t warm = clock_.now() - t1;
  EXPECT_LT(warm, cold);  // second run hits in L1I
}

TEST_F(CoreTest, BlockRoundTripAndCost) {
  std::vector<u8> src(4096);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = u8(i * 7);
  const cycles_t t0 = clock_.now();
  EXPECT_TRUE(core_.vwrite_block(0x2000, src).ok);
  std::vector<u8> dst(4096);
  EXPECT_TRUE(core_.vread_block(0x2000, dst).ok);
  EXPECT_EQ(src, dst);
  // Cost is per-line, not per-byte: far less than 4096 accesses.
  EXPECT_LT(clock_.now() - t0, 4096u * 10);
}

TEST_F(CoreTest, ExceptionEntryBanksStateAndMasksIrq) {
  core_.cpsr().mode = Mode::kUsr;
  core_.cpsr().irq_masked = false;
  core_.exception_enter(Exception::kSupervisorCall);
  EXPECT_EQ(core_.mode(), Mode::kSvc);
  EXPECT_TRUE(core_.cpsr().irq_masked);
  EXPECT_EQ(core_.spsr(Mode::kSvc).mode, Mode::kUsr);
  EXPECT_FALSE(core_.spsr(Mode::kSvc).irq_masked);

  core_.exception_return(Mode::kUsr);
  EXPECT_EQ(core_.mode(), Mode::kUsr);
  EXPECT_FALSE(core_.cpsr().irq_masked);
}

TEST_F(CoreTest, IrqDeliverableRespectsMask) {
  core_.set_irq_line(true);
  core_.cpsr().irq_masked = true;
  EXPECT_FALSE(core_.irq_deliverable());
  core_.cpsr().irq_masked = false;
  EXPECT_TRUE(core_.irq_deliverable());
  core_.set_irq_line(false);
  EXPECT_FALSE(core_.irq_deliverable());
}

}  // namespace
}  // namespace minova::cpu
