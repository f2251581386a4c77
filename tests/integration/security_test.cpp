// Security mechanisms of §IV.C under active attack: a malicious guest
// trying to reach other VMs through the FPGA, and isolation of the PRR
// interface mapping.
#include <gtest/gtest.h>

#include "../nova/stub_guest.hpp"
#include "hwmgr/manager.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"

namespace minova {
namespace {

using nova::GuestContext;
using nova::HcStatus;
using nova::Hypercall;
using nova::testing::StubGuest;

class SecurityTest : public ::testing::Test {
 protected:
  SecurityTest() : kernel_(platform_), manager_(kernel_) {
    manager_.install(2);
    victim_ = &kernel_.create_vm("victim", 1, std::make_unique<StubGuest>());
    attacker_ =
        &kernel_.create_vm("attacker", 1, std::make_unique<StubGuest>());
    kernel_.run_for_us(100);
  }

  nova::HypercallResult request(nova::ProtectionDomain& pd,
                                hwtask::TaskId task) {
    GuestContext ctx(kernel_, pd, platform_.cpu());
    return ctx.hypercall(Hypercall::kHwTaskRequest, task,
                         nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  }

  void drain() {
    const cycles_t end =
        platform_.clock().now() + platform_.clock().ms_to_cycles(30);
    cycles_t dl;
    while (platform_.events().next_deadline(dl) && dl < end) {
      platform_.clock().advance_to(dl);
      platform_.pump();
    }
  }

  /// Program the attacker's mapped register group for a DMA at `src/dst`.
  void start_job(paddr_t src, u32 len, paddr_t dst) {
    auto& cpu = platform_.cpu();
    // The attacker runs in USR mode using its own mapping of the interface.
    const vaddr_t va = nova::kGuestHwIfaceVa;
    ASSERT_TRUE(cpu.vwrite32(va + pl::kRegSrcAddr, src).ok);
    ASSERT_TRUE(cpu.vwrite32(va + pl::kRegSrcLen, len).ok);
    ASSERT_TRUE(cpu.vwrite32(va + pl::kRegDstAddr, dst).ok);
    ASSERT_TRUE(cpu.vwrite32(va + pl::kRegCtrl, pl::kCtrlStart).ok);
  }

  Platform platform_;
  nova::Kernel kernel_;
  hwmgr::ManagerService manager_;
  nova::ProtectionDomain* victim_ = nullptr;
  nova::ProtectionDomain* attacker_ = nullptr;
};

TEST_F(SecurityTest, HwMmuBlocksDmaReadOfVictimMemory) {
  // Plant a secret in the victim's memory.
  platform_.dram().write32(victim_->hw_data_pa, 0x5EC2E7u);

  ASSERT_TRUE(request(*attacker_, hwtask::TaskLibrary::kQam4).ok());
  drain();
  ASSERT_EQ(kernel_.current(), attacker_);

  // Attack: DMA from the *victim's* data section into the attacker's.
  start_job(victim_->hw_data_pa, 64, attacker_->hw_data_pa);

  const u32 prr = [&] {
    for (u32 p = 0; p < manager_.num_prrs(); ++p)
      if (manager_.prr_entry(p).client == attacker_->id()) return p;
    return 0u;
  }();
  EXPECT_TRUE(platform_.prr_controller().prr(prr).error);
  EXPECT_GE(platform_.prr_controller().prr(prr).hwmmu_violations, 1u);
  // Nothing was copied into the attacker's section.
  EXPECT_EQ(platform_.dram().read32(attacker_->hw_data_pa), 0u);
}

TEST_F(SecurityTest, HwMmuBlocksDmaWriteOutsideSection) {
  ASSERT_TRUE(request(*attacker_, hwtask::TaskLibrary::kQam4).ok());
  drain();
  // Valid source, but output aimed at the victim's section.
  platform_.dram().write_block(attacker_->hw_data_pa,
                               std::vector<u8>(64, 0xFF));
  start_job(attacker_->hw_data_pa, 64, victim_->hw_data_pa);
  drain();  // let the job "complete"
  EXPECT_GE(platform_.prr_controller().total_violations(), 1u);
  // Victim memory untouched.
  EXPECT_EQ(platform_.dram().read32(victim_->hw_data_pa), 0u);
}

TEST_F(SecurityTest, InterfacePageInvisibleToOtherVms) {
  ASSERT_TRUE(request(*attacker_, hwtask::TaskLibrary::kQam16).ok());
  drain();
  // The victim's address space has no mapping at the interface VA...
  EXPECT_EQ(victim_->space().translate_raw(nova::kGuestHwIfaceVa),
            std::nullopt);
  // ...and the attacker's mapping is ASID-private: switching to the victim
  // and accessing the VA faults.
  kernel_.run_for_us(40'000);  // let scheduler switch to the victim
  // Force victim current by requesting from it (cheap way to switch).
  ASSERT_TRUE(request(*victim_, hwtask::TaskLibrary::kQam64).ok());
  ASSERT_EQ(kernel_.current(), victim_);
  // victim's iface maps to *its* PRR, not the attacker's.
  const auto victim_pa = victim_->space().translate_raw(nova::kGuestHwIfaceVa);
  const auto attacker_pa =
      attacker_->space().translate_raw(nova::kGuestHwIfaceVa);
  ASSERT_TRUE(victim_pa.has_value());
  ASSERT_TRUE(attacker_pa.has_value());
  EXPECT_NE(*victim_pa, *attacker_pa);
}

TEST_F(SecurityTest, GuestCannotProgramPlControlOrPcap) {
  // Only the manager maps the PL global control page and the PCAP. A guest
  // has no mapping for them, and it cannot create one: map_insert maps
  // only offsets inside the caller's own slab.
  // Enter the attacker's address space directly (test plumbing).
  auto& cpu = platform_.cpu();
  attacker_->vcpu().restore_active(cpu);
  cpu.cpsr().mode = cpu::Mode::kUsr;
  EXPECT_FALSE(cpu.vwrite32(nova::manager_pl_ctrl_va(), 0).ok);
  EXPECT_FALSE(cpu.vwrite32(nova::manager_pcap_va(), 1).ok);
  GuestContext ctx(kernel_, *attacker_, platform_.cpu());
  EXPECT_EQ(ctx.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, 0x00F0'0000u,
                          mem::kPrrGlobalRegsBase, /*device=*/1)
                .status,
            HcStatus::kDenied);
  EXPECT_EQ(ctx.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, 0x00F0'0000u,
                          mem::kDevcfgBase, 1)
                .status,
            HcStatus::kDenied);
}

TEST_F(SecurityTest, ReclaimedInterfaceAccessFaults) {
  // §IV.C acknowledgement method 2: after a reclaim, any access to the
  // demapped interface traps with a page fault the guest OS can handle.
  ASSERT_TRUE(request(*attacker_, hwtask::TaskLibrary::kQam4).ok());
  drain();
  // Attacker can touch its interface now.
  ASSERT_EQ(kernel_.current(), attacker_);
  EXPECT_TRUE(platform_.cpu().vread32(nova::kGuestHwIfaceVa).ok);

  ASSERT_TRUE(request(*victim_, hwtask::TaskLibrary::kQam4).ok());  // reclaim
  drain();
  EXPECT_EQ(attacker_->space().translate_raw(nova::kGuestHwIfaceVa),
            std::nullopt);
  // Make the attacker current again via a benign hypercall path, then the
  // stale access faults.
  GuestContext ctx(kernel_, *attacker_, platform_.cpu());
  ASSERT_TRUE(ctx.hypercall(Hypercall::kHwTaskRequest,
                            hwtask::TaskLibrary::kQam16,
                            nova::kGuestHwIfaceVa + 0x1000,
                            nova::kGuestHwDataVa)
                  .ok());
  ASSERT_EQ(kernel_.current(), attacker_);
  const auto r = platform_.cpu().vread32(nova::kGuestHwIfaceVa);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.type, mmu::FaultType::kTranslationL2);
}

TEST_F(SecurityTest, ConsistencyFlagWarnsPreviousClient) {
  ASSERT_TRUE(request(*attacker_, hwtask::TaskLibrary::kQam4).ok());
  drain();
  // Attacker's record is consistent after its own grant.
  EXPECT_EQ(platform_.dram().read32(
                attacker_->hw_data_pa +
                hwmgr::consistency_offset(attacker_->hw_data_size)),
            hwmgr::kStateConsistent);
  ASSERT_TRUE(request(*victim_, hwtask::TaskLibrary::kQam4).ok());
  drain();
  EXPECT_EQ(platform_.dram().read32(
                attacker_->hw_data_pa +
                hwmgr::consistency_offset(attacker_->hw_data_size)),
            hwmgr::kStateInconsistent);
}

}  // namespace
}  // namespace minova
