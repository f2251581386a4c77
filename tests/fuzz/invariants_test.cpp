// Oracle sanity: every invariant in the fuzzer's catalogue must actually
// *fire* when its property is broken. Each test boots a real multi-VM
// kernel, verifies the full suite is clean, seeds one targeted mutation
// through a back door (direct state corruption the hypercall ABI would
// never permit), and asserts exactly the matching oracle reports it. An
// oracle that cannot detect its own seeded mutant is a dead check — this
// file is what keeps the catalogue honest as the kernel grows.
#include "fuzz/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../nova/stub_guest.hpp"
#include "hwmgr/manager.hpp"
#include "mem/address_map.hpp"
#include "nova/kernel.hpp"
#include "nova/kmem.hpp"
#include "pl/prr_controller.hpp"

namespace minova::fuzz {
namespace {

using nova::GuestContext;
using nova::Hypercall;
using nova::KernelInspector;
using nova::ProtectionDomain;
using nova::testing::StubGuest;

class OracleMutationTest : public ::testing::Test {
 protected:
  OracleMutationTest()
      : kernel_(platform_), manager_(kernel_), insp_(kernel_),
        suite_(insp_, &manager_) {
    manager_.install(/*priority=*/6);
    // vm0 outranks vm1, so after boot vm0 is current and vm1 descheduled —
    // the split several oracles distinguish.
    vm0_ = &kernel_.create_vm("vm0", 3, std::make_unique<StubGuest>());
    vm1_ = &kernel_.create_vm("vm1", 1, std::make_unique<StubGuest>());
    kernel_.run_for_us(200);
  }

  /// The suite must be clean on the untouched kernel — otherwise the
  /// "mutation fires" assertion below would prove nothing.
  void expect_clean_baseline() {
    auto v = suite_.check_cheap();
    for (auto& h : suite_.check_heavy()) v.push_back(std::move(h));
    ASSERT_TRUE(v.empty()) << "baseline violation: [" +
                                  std::string(oracle_name(v.front().oracle)) +
                                  "] " + v.front().detail;
  }

  /// Assert oracle `o` (and only the expected kind) reports the mutation.
  void expect_fires(Oracle o) {
    std::vector<Violation> out;
    suite_.check(o, out);
    ASSERT_FALSE(out.empty()) << oracle_name(o) << " missed its mutant";
    for (const auto& v : out) EXPECT_EQ(v.oracle, o) << v.detail;
  }

  Platform platform_;
  nova::Kernel kernel_;
  hwmgr::ManagerService manager_;
  KernelInspector insp_;
  InvariantSuite suite_;
  ProtectionDomain* vm0_ = nullptr;
  ProtectionDomain* vm1_ = nullptr;
};

TEST_F(OracleMutationTest, FrameExclusivityCatchesForeignMapping) {
  expect_clean_baseline();
  // vm1 sneaks a page of vm0's physical slab into its own space — the
  // cross-VM leak the per-VM page tables exist to prevent.
  vm1_->space().map_page(0x00C5'0000u, nova::vm_phys_base(vm0_->vm_index),
                         mmu::MapAttrs{});
  expect_fires(Oracle::kFrameExclusivity);
}

TEST_F(OracleMutationTest, FrameExclusivityCatchesSharedPrivateFrame) {
  expect_clean_baseline();
  // Both VMs map the same frame of vm0's slab: vm0 legitimately (own slab),
  // vm1 not — flagged once as foreign and once as shared.
  const paddr_t frame = nova::vm_phys_base(vm0_->vm_index) + 0x5000;
  vm0_->space().map_page(0x00C5'0000u, frame, mmu::MapAttrs{});
  vm1_->space().map_page(0x00C5'0000u, frame, mmu::MapAttrs{});
  expect_fires(Oracle::kFrameExclusivity);
}

TEST_F(OracleMutationTest, DacrModeCatchesWrongSavedDacr) {
  expect_clean_baseline();
  // Saved DACR says guest-kernel while the PD claims guest-user (the
  // Table II mismatch a botched kSetGuestMode would leave behind).
  vm1_->guest_in_kernel = false;
  vm1_->vcpu().set_dacr(nova::dacr_guest_kernel());
  expect_fires(Oracle::kDacrMode);
}

TEST_F(OracleMutationTest, DacrModeCatchesLiveMmuDesync) {
  expect_clean_baseline();
  // Live CP15 DACR diverges from the current VM's saved copy — the leak a
  // mid-hypercall VM switch could cause if save_active snapshotted CP15.
  platform_.cpu().mmu().set_dacr(0xFFFF'FFFFu);
  expect_fires(Oracle::kDacrMode);
}

TEST_F(OracleMutationTest, IrqMaskDisciplineCatchesUnmaskedDescheduledSource) {
  expect_clean_baseline();
  // A physical source registered by the *descheduled* vm1 left enabled at
  // the GIC: a device interrupt would fire while the wrong VM runs.
  ASSERT_NE(insp_.current(), vm1_);
  ASSERT_TRUE(vm1_->vgic().register_irq(61));
  expect_clean_baseline();  // registered-but-masked is the legal state
  platform_.gic().enable_irq(61);
  expect_fires(Oracle::kIrqMaskDiscipline);
}

TEST_F(OracleMutationTest, IrqUnmaskDisciplineCatchesMaskedEnabledSource) {
  expect_clean_baseline();
  ProtectionDomain* cur = kernel_.pd_by_id(insp_.current()->id());
  ASSERT_NE(cur, nullptr);
  // The current VM virtually enabled a registered source, but the physical
  // unmask never happened — its interrupts would silently never arrive.
  ASSERT_TRUE(cur->vgic().register_irq(62));
  cur->vgic().enable(62);
  ASSERT_FALSE(platform_.gic().is_enabled(62));
  expect_fires(Oracle::kIrqUnmaskDiscipline);
}

TEST_F(OracleMutationTest, SchedPartitionCatchesHaltedPdStillQueued) {
  expect_clean_baseline();
  // Halt bypassing the scheduler: the PD stays in a run queue as a dangling
  // dispatch candidate.
  vm1_->set_state(nova::PdState::kHalted);
  expect_fires(Oracle::kSchedPartition);
}

TEST_F(OracleMutationTest, QuantumBoundCatchesManufacturedBudget) {
  expect_clean_baseline();
  // More remaining quantum than a full slice: some path manufactured CPU
  // time (the exact corruption the scenario runner's sabotage hook seeds).
  vm1_->quantum_left = insp_.scheduler().default_quantum() * 2 + 1;
  expect_fires(Oracle::kQuantumBound);
}

TEST_F(OracleMutationTest, PortalCapsCatchesStaleDenialFlags) {
  expect_clean_baseline();
  // Capability mask dropped without rebuilding the portal table: portals
  // still grant authority the caps no longer carry.
  ASSERT_NE(vm1_->caps(), 0u);
  vm1_->set_caps_for_test(nova::kCapNone);
  expect_fires(Oracle::kPortalCaps);
}

TEST_F(OracleMutationTest, PrrOwnershipCatchesForeignRegisterGroupMapping) {
  expect_clean_baseline();
  ASSERT_GT(manager_.num_prrs(), 0u);
  // vm1 maps PRR 0's register-group page without any grant on record.
  vm1_->space().map_page(nova::kGuestHwIfaceVa,
                         platform_.prr_controller().reg_group_pa(0),
                         mmu::MapAttrs{});
  expect_fires(Oracle::kPrrOwnership);
}

TEST_F(OracleMutationTest, PrrOwnershipCatchesManagerOnlyDevicePage) {
  expect_clean_baseline();
  // The PL global-control page in a guest: it could reprogram any hwMMU.
  vm1_->space().map_page(nova::kGuestHwIfaceVa + mmu::kPageSize,
                         mem::kPrrGlobalRegsBase, mmu::MapAttrs{});
  expect_fires(Oracle::kPrrOwnership);
}

class OracleGrantMutationTest : public OracleMutationTest {
 protected:
  /// Drive a real hardware-task grant for vm0 through the hypercall gate,
  /// then let the PCAP transfer finish.
  u32 grant_to_vm0() {
    GuestContext ctx(kernel_, *vm0_, platform_.cpu());
    const auto res =
        ctx.hypercall(Hypercall::kHwTaskRequest, hwtask::TaskLibrary::kQam4,
                      nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
    EXPECT_TRUE(res.ok());
    kernel_.run_for_us(20'000);  // PCAP completion + completion routing
    for (u32 p = 0; p < manager_.num_prrs(); ++p)
      if (manager_.prr_entry(p).client == vm0_->id()) return p;
    return manager_.num_prrs();
  }
};

TEST_F(OracleGrantMutationTest, HwMmuWindowCatchesRogueWindow) {
  const u32 prr = grant_to_vm0();
  ASSERT_LT(prr, manager_.num_prrs());
  expect_clean_baseline();
  // Point the granted region's hwMMU window at DRAM outside the client's
  // data section — FPGA DMA could then reach foreign memory (§IV.C).
  auto& ctl = platform_.prr_controller();
  const u32 glob = mem::kPrrMaxRegions * mem::kPrrRegGroupStride;
  ctl.mmio_write(glob + pl::kGlobPrrSelect, prr);
  ctl.mmio_write(glob + pl::kGlobHwmmuBase, u32(vm0_->hw_data_pa - 0x1000));
  expect_fires(Oracle::kHwMmuWindow);
}

TEST_F(OracleGrantMutationTest, PrrOwnershipCatchesStolenInterfacePage) {
  const u32 prr = grant_to_vm0();
  ASSERT_LT(prr, manager_.num_prrs());
  expect_clean_baseline();
  // vm1 maps the register group vm0 was granted: two VMs would share one
  // accelerator's doorbell.
  vm1_->space().map_page(nova::kGuestHwIfaceVa,
                         platform_.prr_controller().reg_group_pa(prr),
                         mmu::MapAttrs{});
  expect_fires(Oracle::kPrrOwnership);
}

TEST_F(OracleMutationTest, TlbCoherenceCatchesStaleEntry) {
  expect_clean_baseline();
  // A TLB entry caching a translation the tables never held — what a missed
  // flush after unmap would leave behind.
  platform_.cpu().tlb().insert(cache::TlbEntry{
      .asid = vm0_->vcpu().asid(),
      .vpage = 0x00C7'0000u >> 12,
      .ppage = 0x0BAD'0000u >> 12,
      .attrs = 0,
      .global = false,
      .large = false,
      .valid = true,
      .lru = 0,
  });
  expect_fires(Oracle::kTlbCoherence);
}

TEST_F(OracleMutationTest, TlbCoherenceCatchesUnknownAsid) {
  expect_clean_baseline();
  platform_.cpu().tlb().insert(cache::TlbEntry{
      .asid = 0x77,  // no PD owns this ASID
      .vpage = 0x123,
      .ppage = 0x456,
      .attrs = 0,
      .global = false,
      .large = false,
      .valid = true,
      .lru = 0,
  });
  expect_fires(Oracle::kTlbCoherence);
}

TEST_F(OracleMutationTest, ObjectLeakCatchesOrphanHeapBlock) {
  expect_clean_baseline();
  // A kernel object allocated but owned by nothing — what a destroy path
  // that forgot one free would leave behind (the density leak oracle).
  kernel_.heap().alloc(64);
  expect_fires(Oracle::kObjectLeak);
}

TEST_F(OracleMutationTest, ObjectLeakCatchesOrphanControlBlock) {
  expect_clean_baseline();
  // Same for the downward-carved control region: ctrl blocks must match
  // live PDs one-to-one.
  kernel_.heap().alloc_ctrl(64);
  expect_fires(Oracle::kObjectLeak);
}

TEST_F(OracleMutationTest, AsidUniquenessCatchesAliasedLiveVms) {
  expect_clean_baseline();
  // Two live VMs sharing one (ASID, generation): their TLB entries become
  // indistinguishable — the exact corruption a bump allocator reaches
  // after 255 creates.
  vm1_->vcpu().set_asid_tag(vm0_->vcpu().asid(), vm0_->vcpu().asid_gen());
  expect_fires(Oracle::kAsidUniqueness);
}

TEST_F(OracleMutationTest, AsidUniquenessCatchesOutOfRangeTag) {
  expect_clean_baseline();
  // ASID 0 is the kernel's; an 8-bit CONTEXTIDR cannot hold 300 either.
  vm1_->vcpu().set_asid_tag(0, vm1_->vcpu().asid_gen());
  expect_fires(Oracle::kAsidUniqueness);
  vm1_->vcpu().set_asid_tag(300, vm1_->vcpu().asid_gen());
  expect_fires(Oracle::kAsidUniqueness);
}

TEST_F(OracleMutationTest, CatalogueCoversAtLeastEightOracles) {
  // The acceptance floor: the catalogue holds >= 8 distinct oracles and
  // every one is classified into exactly one cost tier.
  EXPECT_GE(kNumOracles, 8u);
  u32 cheap = 0, heavy = 0;
  for (u32 i = 0; i < kNumOracles; ++i)
    (InvariantSuite::is_heavy(Oracle(i)) ? heavy : cheap) += 1;
  EXPECT_EQ(cheap + heavy, kNumOracles);
  EXPECT_GT(cheap, 0u);
  EXPECT_GT(heavy, 0u);
}

}  // namespace
}  // namespace minova::fuzz
