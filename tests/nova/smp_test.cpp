// SMP kernel behaviour (DESIGN.md §13): per-core contexts and round-robin
// VM placement, work-stealing run queues, IPI bookkeeping, per-IRQ GIC
// targeting with cross-core routing, migration state preservation, and the
// MININOVA_TEST_CORES sweep (CI runs the suite at 1, 2 and 4 cores).
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "nova/inspector.hpp"
#include "nova/kernel.hpp"
#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::StubGuest;

class NullHwService final : public HwService {
 public:
  HcStatus handle_request(GuestContext&, const HwTaskRequest&, u32&) override {
    return HcStatus::kSuccess;
  }
  HcStatus handle_release(GuestContext&, PdId, hwtask::TaskId) override {
    return HcStatus::kSuccess;
  }
  u32 query_reconfig(PdId) override { return 0; }
};

StubGuest::StepFn burn_step() {
  return [](GuestContext& ctx, cycles_t budget) {
    ctx.spend_insns(budget / 2 + 1);
    return StepExit::kBudget;
  };
}

KernelConfig smp_cfg(u32 cores) {
  KernelConfig cfg;
  cfg.num_cores = cores;
  cfg.quantum_ms = 1.0;  // short slices: frequent switches and steals
  return cfg;
}

TEST(SmpConfigTest, DefaultIsUnicore) {
  Platform platform;
  Kernel kernel(platform);
  EXPECT_EQ(kernel.num_cores(), 1u);
  EXPECT_EQ(kernel.active_core(), 0u);
  EXPECT_EQ(kernel.tlb_epoch(), 0u);
  EXPECT_EQ(kernel.shootdowns_sent(), 0u);
}

TEST(SmpConfigTest, CoreCountClampsTo1Through8) {
  {
    Platform platform;
    KernelConfig cfg;
    cfg.num_cores = 0;
    Kernel kernel(platform, cfg);
    EXPECT_EQ(kernel.num_cores(), 1u);
  }
  {
    Platform platform;
    KernelConfig cfg;
    cfg.num_cores = 64;
    Kernel kernel(platform, cfg);
    EXPECT_EQ(kernel.num_cores(), 8u);
  }
}

TEST(SmpConfigTest, HostThreadsClampToCoreCount) {
  // A round's batch holds one step per core, so threads beyond the core
  // count could never get work.
  Platform platform;
  KernelConfig cfg;
  cfg.num_cores = 2;
  cfg.host_threads = 64;
  Kernel kernel(platform, cfg);
  EXPECT_EQ(kernel.config().host_threads, 2u);
}

TEST(SmpConfigTest, BootGivesEachCoreItsOwnLane) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(4));
  ASSERT_EQ(platform.num_lanes(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    const mmu::Mmu& mmu = platform.lane(i).mmu();
    EXPECT_TRUE(mmu.enabled()) << "lane " << i;
    EXPECT_EQ(mmu.ttbr0(), platform.lane(0).mmu().ttbr0()) << "lane " << i;
    for (u32 j = 0; j < i; ++j) EXPECT_NE(&mmu, &platform.lane(j).mmu());
  }
}

TEST(SmpPlacementTest, CreateVmRoundRobinsAcrossCores) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(4));
  KernelInspector insp(kernel);
  std::vector<ProtectionDomain*> vms;
  for (u32 i = 0; i < 4; ++i)
    vms.push_back(&kernel.create_vm("vm" + std::to_string(i), 1,
                                    std::make_unique<StubGuest>(burn_step())));
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(vms[i]->home_core, i) << "vm" << i;
    EXPECT_EQ(vms[i]->run_core, i) << "vm" << i;
    EXPECT_EQ(insp.core(i).runqueue().runnable_count(), 1u) << "core " << i;
  }
}

TEST(SmpPlacementTest, ManagerIsPinnedToCore0) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);
  EXPECT_TRUE(mgr.core_pinned);
  EXPECT_EQ(mgr.run_core, 0u);
  KernelInspector insp(kernel);
  EXPECT_TRUE(insp.core(0).runqueue().is_suspended(&mgr));
}

TEST(SmpRunTest, AllCoresExecuteTheirGuests) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(4));
  KernelInspector insp(kernel);
  std::vector<StubGuest*> guests;
  for (u32 i = 0; i < 4; ++i) {
    auto g = std::make_unique<StubGuest>(burn_step());
    guests.push_back(g.get());
    kernel.create_vm("vm" + std::to_string(i), 1, std::move(g));
  }
  kernel.run_for_us(20'000);
  u64 switches = 0;
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_GT(guests[i]->steps, 0u) << "guest on core " << i << " never ran";
    EXPECT_GT(insp.core(i).vm_switches(), 0u) << "core " << i;
    switches += insp.core(i).vm_switches();
  }
  // Per-core switch counters partition the global count exactly.
  EXPECT_EQ(switches, kernel.vm_switch_count());
}

TEST(SmpStealTest, IdleCoreStealsFromLoadedSibling) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  KernelInspector insp(kernel);
  // Placement: vm0 -> core 0, vm1 -> core 1, vm2 -> core 0. vm1 halts
  // almost immediately, leaving core 1 idle next to core 0's backlog.
  auto g0 = std::make_unique<StubGuest>(burn_step());
  kernel.create_vm("vm0", 1, std::move(g0));
  kernel.create_vm("vm1", 1,
                   std::make_unique<StubGuest>([](GuestContext& ctx,
                                                  cycles_t) {
                     ctx.spend_insns(100);
                     return StepExit::kHalt;
                   }));
  auto g2 = std::make_unique<StubGuest>(burn_step());
  StubGuest* raw2 = g2.get();
  ProtectionDomain& vm2 = kernel.create_vm("vm2", 1, std::move(g2));
  kernel.run_for_us(30'000);

  EXPECT_GE(insp.core(1).steals(), 1u);
  EXPECT_GT(platform.stats().counter_value("kernel.smp.steals"), 0u);
  // The stolen PD was re-homed and actually ran on the thief.
  EXPECT_EQ(vm2.run_core, 1u);
  EXPECT_GE(vm2.migrations, 1u);
  EXPECT_GT(raw2->steps, 0u);
}

TEST(SmpStealTest, UnicoreNeverSteals) {
  Platform platform;
  Kernel kernel(platform);
  kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(burn_step()));
  kernel.run_for_us(20'000);
  EXPECT_EQ(platform.stats().counter_value("kernel.smp.steals"), 0u);
  EXPECT_EQ(platform.stats().counter_value("kernel.ipi.sent"), 0u);
}

TEST(SmpGicTest, PlIrqAssignmentTargetsTheOwnersCore) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);
  kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(burn_step()));
  ProtectionDomain& vm1 =
      kernel.create_vm("vm1", 1, std::make_unique<StubGuest>(burn_step()));
  ASSERT_EQ(vm1.run_core, 1u);

  constexpr u32 kPlIrq = 61;
  ASSERT_TRUE(mem::is_pl_irq(kPlIrq));
  ASSERT_EQ(kernel.svc_assign_pl_irq(mgr, vm1.id(), kPlIrq),
            HcStatus::kSuccess);
  EXPECT_EQ(platform.gic().target_mask(kPlIrq), u8(1u << 1));
  // Unicore reset value everywhere else: boot-owned sources stay on CPU0.
  EXPECT_EQ(platform.gic().target_mask(mem::kIrqPrivateTimer), u8(0x01));
}

TEST(SmpGicTest, MigratedOwnerGetsCrossCoreRouting) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);
  // Two VMs per core so neither core ever idles: work stealing must not
  // quietly move the migrated owner back and dissolve the scenario.
  kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(burn_step()));
  ProtectionDomain& vm1 =
      kernel.create_vm("vm1", 1, std::make_unique<StubGuest>(burn_step()));
  kernel.create_vm("vm2", 1, std::make_unique<StubGuest>(burn_step()));
  kernel.create_vm("vm3", 1, std::make_unique<StubGuest>(burn_step()));
  ASSERT_EQ(vm1.run_core, 1u);

  constexpr u32 kPlIrq = 61;
  // Route the source to vm1's core (1), then migrate vm1 to core 0 before
  // it ever runs: the distributor still targets core 1, so delivery takes
  // an IRQ trap there and crosses to the owner by reschedule IPI.
  ASSERT_EQ(kernel.svc_assign_pl_irq(mgr, vm1.id(), kPlIrq),
            HcStatus::kSuccess);
  ASSERT_TRUE(kernel.migrate_vm(vm1.id(), 0));
  ASSERT_EQ(vm1.run_core, 0u);
  kernel.run_for_us(5'000);  // vm1 runs on core 0, unmasking its source
  platform.gic().raise(kPlIrq);
  kernel.run_for_us(20'000);
  EXPECT_GT(platform.stats().counter_value("kernel.irq.cross_core"), 0u);
  EXPECT_GT(platform.stats().counter_value("kernel.ipi.sent"), 0u);
}

// destroy_vm masks the dying VM's sources under the same rule as the
// switch-out path (DESIGN.md §13.4): a source that another core's current
// VM holds enabled stays unmasked at the shared distributor.
TEST(SmpGicTest, DestroyKeepsSourceLiveOnSiblingUnmasked) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  KernelInspector insp(kernel);
  constexpr u32 kPlIrq = 61;
  ProtectionDomain& vm0 =
      kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(burn_step()));
  ProtectionDomain& vm1 =
      kernel.create_vm("vm1", 1, std::make_unique<StubGuest>(burn_step()));
  for (ProtectionDomain* vm : {&vm0, &vm1}) {
    ASSERT_TRUE(vm->vgic().register_irq(kPlIrq));
    vm->vgic().enable(kPlIrq);
  }
  kernel.run_for_us(5'000);
  ASSERT_EQ(insp.core(0).current_vm(), &vm0);
  ASSERT_EQ(insp.core(1).current_vm(), &vm1);
  ASSERT_TRUE(platform.gic().is_enabled(kPlIrq));

  ASSERT_TRUE(kernel.destroy_vm(vm1.id()));
  EXPECT_TRUE(platform.gic().is_enabled(kPlIrq))
      << "destroying core 1's VM masked a source core 0's VM holds enabled";
}

// The rule is judged from the dying VM's core, not the active one: a VM
// current on a remote core must not count as its own sibling.
TEST(SmpGicTest, DestroyMasksRemoteCurrentVmSources) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  KernelInspector insp(kernel);
  const std::array<u32, 2> irqs = {61, 62};  // one private source per VM
  std::array<ProtectionDomain*, 2> vms{};
  for (u32 i = 0; i < 2; ++i) {
    vms[i] = &kernel.create_vm("vm" + std::to_string(i), 1,
                               std::make_unique<StubGuest>(burn_step()));
    ASSERT_TRUE(vms[i]->vgic().register_irq(irqs[i]));
    vms[i]->vgic().enable(irqs[i]);
  }
  kernel.run_for_us(5'000);
  const u32 remote = 1 - kernel.active_core();
  ASSERT_EQ(insp.core(remote).current_vm(), vms[remote]);
  ASSERT_TRUE(platform.gic().is_enabled(irqs[remote]));

  ASSERT_TRUE(kernel.destroy_vm(vms[remote]->id()));
  EXPECT_FALSE(platform.gic().is_enabled(irqs[remote]))
      << "the dead VM's source stayed unmasked";
  EXPECT_TRUE(platform.gic().is_enabled(irqs[1 - remote]));
}

TEST(SmpMigrateTest, MigrationPreservesVcpuVgicStateBitForBit) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  // Migrate vm0 *away* from the active core (0): the kIpiVmMigrate
  // announcement is only posted cross-core.
  ProtectionDomain& vm0 =
      kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(burn_step()));
  kernel.create_vm("vm1", 1, std::make_unique<StubGuest>(burn_step()));
  ASSERT_EQ(vm0.run_core, 0u);

  // Stamp distinctive state into the vCPU and vGIC before migrating.
  for (unsigned r = 0; r < 16; ++r) vm0.vcpu().set_reg(r, 0xA500'0000u + r);
  ASSERT_TRUE(vm0.vgic().register_irq(90));  // virtual-only source
  vm0.vgic().enable(90);
  const paddr_t ttbr = vm0.vcpu().ttbr0();
  const u32 dacr = vm0.vcpu().dacr();
  const u32 asid = vm0.vcpu().asid();
  const cycles_t quantum = vm0.quantum_left;

  KernelInspector insp(kernel);
  const u64 ipis_before = insp.core(1).pending_ipis();
  ASSERT_TRUE(kernel.migrate_vm(vm0.id(), 1));

  EXPECT_EQ(vm0.run_core, 1u);
  EXPECT_EQ(vm0.home_core, 0u);  // affinity home is a birth property
  EXPECT_EQ(vm0.migrations, 1u);
  for (unsigned r = 0; r < 16; ++r)
    EXPECT_EQ(vm0.vcpu().reg(r), 0xA500'0000u + r) << "r" << r;
  EXPECT_EQ(vm0.vcpu().ttbr0(), ttbr);
  EXPECT_EQ(vm0.vcpu().dacr(), dacr);
  EXPECT_EQ(vm0.vcpu().asid(), asid);
  EXPECT_EQ(vm0.quantum_left, quantum);
  EXPECT_TRUE(vm0.vgic().is_registered(90));
  EXPECT_TRUE(vm0.vgic().is_enabled(90));
  // The queue transfer moved it and announced itself to the target core.
  EXPECT_EQ(insp.core(0).runqueue().runnable_count(), 0u);
  EXPECT_EQ(insp.core(1).runqueue().runnable_count(), 2u);
  EXPECT_GE(insp.core(1).pending_ipis(), ipis_before + 1);
  // Drain the announcement: the target core counts the migration in.
  kernel.run_for_us(5'000);
  EXPECT_EQ(insp.core(1).migrations_in(), 1u);
}

TEST(SmpMigrateTest, RefusesManagerCurrentAndBadTargets) {
  Platform platform;
  Kernel kernel(platform, smp_cfg(2));
  NullHwService svc;
  ProtectionDomain& mgr = kernel.create_manager("mgr", 6, svc);
  ProtectionDomain& vm0 =
      kernel.create_vm("vm0", 1, std::make_unique<StubGuest>(burn_step()));
  EXPECT_FALSE(kernel.migrate_vm(mgr.id(), 1));      // services are pinned
  EXPECT_FALSE(kernel.migrate_vm(PdId(999), 1));     // unknown id
  EXPECT_FALSE(kernel.migrate_vm(vm0.id(), 7));      // no such core
  EXPECT_TRUE(kernel.migrate_vm(vm0.id(), 0));       // no-op onto own core
  kernel.run_for_us(5'000);                          // vm0 becomes current
  EXPECT_FALSE(kernel.migrate_vm(vm0.id(), 1));      // current: refused
}

// MININOVA_TEST_CORES sweep: the CI matrix sets e.g. "1;2;4" and this one
// test re-runs a mixed workload at each core count, checking the structural
// SMP invariants at every width (the fixed-width tests above pin behaviour;
// this proves nothing breaks as the axis varies).
TEST(SmpSweepTest, WorkloadHoldsAcrossConfiguredCoreCounts) {
  std::vector<u32> counts;
  if (const char* env = std::getenv("MININOVA_TEST_CORES")) {
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t next = s.find(';', pos);
      const std::string tok =
          s.substr(pos, next == std::string::npos ? next : next - pos);
      if (!tok.empty()) counts.push_back(u32(std::strtoul(tok.c_str(), nullptr, 0)));
      if (next == std::string::npos) break;
      pos = next + 1;
    }
  }
  if (counts.empty()) counts = {1, 2, 4};

  for (u32 n : counts) {
    SCOPED_TRACE("cores=" + std::to_string(n));
    Platform platform;
    Kernel kernel(platform, smp_cfg(n));
    KernelInspector insp(kernel);
    std::vector<StubGuest*> guests;
    const u32 nvms = 2 * kernel.num_cores();
    for (u32 i = 0; i < nvms; ++i) {
      auto g = std::make_unique<StubGuest>(burn_step());
      guests.push_back(g.get());
      // Equal priority: the per-level scheduler is strict-priority, so a
      // lower-priority sibling sharing a core would legitimately starve.
      kernel.create_vm("vm" + std::to_string(i), 1, std::move(g));
    }
    kernel.run_for_us(30'000);
    for (u32 i = 0; i < nvms; ++i)
      EXPECT_GT(guests[i]->steps, 0u) << "vm" << i;
    u64 per_core = 0;
    for (u32 c = 0; c < insp.num_cores(); ++c)
      per_core += insp.core(c).vm_switches();
    EXPECT_EQ(per_core, kernel.vm_switch_count());
    // Completion accounting balances at rest regardless of width.
    u64 acked = 0, pending = 0;
    for (u32 c = 0; c < insp.num_cores(); ++c) {
      acked += insp.core(c).shootdowns_acked();
      pending += insp.core(c).pending_shootdowns();
    }
    EXPECT_EQ(kernel.shootdowns_sent(), acked + pending);
  }
}

}  // namespace
}  // namespace minova::nova
