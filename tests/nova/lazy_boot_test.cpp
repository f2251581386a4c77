// Lazy-vs-eager differential test (density tentpole).
//
// KernelConfig::lazy_vm_boot defers page-table population and the vGIC
// record list to first use. The contract: a guest cannot tell the
// difference. The same deterministic workload runs under both modes and
// every guest-visible observable must match bit-for-bit — memory contents,
// in-step read-backs, console bytes, emulated sysregs, step counts,
// hypercall results — while the kernel-side trap counters differ by
// exactly the documented first-touch materialization faults.
#include "nova/kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "stub_guest.hpp"

namespace minova::nova {
namespace {

using testing::StubGuest;

constexpr u32 kGuests = 3;
constexpr u32 kStepsPerGuest = 40;
constexpr u32 kWords = 16;

/// Everything a guest (or its operator) can observe about a run.
struct RunDigest {
  std::array<u64, kGuests> read_checksum{};  // in-step read32 values
  std::array<u64, kGuests> final_mem{};      // pattern words after the run
  std::array<u64, kGuests> steps{};
  std::array<u32, kGuests> sysreg3{};
  std::string console;
  u64 hypercalls = 0;
  u64 vm_switches = 0;
  u64 guest_faults_forwarded = 0;
  u64 virq_injected = 0;
  // Kernel-side accounting (split out so the differential can assert the
  // documented delta instead of blind equality).
  u64 trap_guest_fault = 0;
  u64 lazy_space_faults = 0;
};

RunDigest run_workload(bool lazy) {
  Platform platform;
  KernelConfig cfg;
  cfg.lazy_vm_boot = lazy;
  Kernel kernel(platform, cfg);

  RunDigest d;
  struct GuestState {
    u32 id = 0;
    u32 step = 0;
    u64 checksum = 0;
  };
  std::array<GuestState, kGuests> state{};
  std::array<ProtectionDomain*, kGuests> pds{};
  std::array<StubGuest*, kGuests> guests{};

  for (u32 g = 0; g < kGuests; ++g) {
    state[g].id = g;
    GuestState* self = &state[g];
    auto step = [self](GuestContext& ctx, cycles_t) {
      const u32 s = self->step++;
      const vaddr_t slot = kGuestUserVa + 0x200 + 4 * (s % kWords);
      const u32 value = self->id * 0x0001'0001u + s;
      // First touch of guest memory: under lazy boot this write faults once
      // and the kernel materializes the space transparently.
      if (!ctx.write32(slot, value).ok) return StepExit::kHalt;
      const auto rd = ctx.read32(slot);
      self->checksum = self->checksum * 31 + (rd.ok ? rd.value : 0xDEADu);
      (void)ctx.hypercall(Hypercall::kRegWrite, 0, 3, (self->id << 8) | s);
      if (s % 8 == 0)
        (void)ctx.hypercall(Hypercall::kUartWrite, 0, u32('A' + self->id));
      ctx.spend_insns(2000);
      // kBudget (not kYield): a yielded VM with no timer parks forever.
      return self->step >= kStepsPerGuest ? StepExit::kHalt : StepExit::kBudget;
    };
    auto guest = std::make_unique<StubGuest>(step);
    guests[g] = guest.get();
    pds[g] = &kernel.create_vm("vm" + std::to_string(g), 1, std::move(guest));
  }

  kernel.run_for_us(100'000);  // generously past all halts

  for (u32 g = 0; g < kGuests; ++g) {
    d.read_checksum[g] = state[g].checksum;
    d.steps[g] = guests[g]->steps;
    d.sysreg3[g] = pds[g]->sysregs[3];
    // Final pattern words, read through the VM's physical slab (the
    // guest-VA window maps linearly onto it).
    for (u32 k = 0; k < kWords; ++k) {
      const paddr_t pa =
          vm_phys_base(pds[g]->vm_index) + kGuestUserVa + 0x200 + 4 * k;
      d.final_mem[g] = d.final_mem[g] * 31 + platform.dram().read32(pa);
    }
  }
  // The guests halted long ago, so the UART FIFO has drained.
  EXPECT_EQ(platform.uart().fifo_level(), 0u);
  d.console = platform.uart().transmitted();
  d.hypercalls = kernel.hypercall_count();
  d.vm_switches = kernel.vm_switch_count();
  d.guest_faults_forwarded =
      platform.stats().counter_value("kernel.guest_faults");
  d.virq_injected = platform.stats().counter_value("kernel.virq_injected");
  d.trap_guest_fault = platform.stats().counter_value("kernel.trap.guest_fault");
  d.lazy_space_faults = kernel.lazy_space_faults();
  EXPECT_EQ(d.lazy_space_faults,
            platform.stats().counter_value("kernel.lazy_space_faults"));
  return d;
}

TEST(LazyBootDifferentialTest, GuestVisibleStateIsBitIdentical) {
  const RunDigest eager = run_workload(false);
  const RunDigest lazy = run_workload(true);

  for (u32 g = 0; g < kGuests; ++g) {
    EXPECT_EQ(eager.read_checksum[g], lazy.read_checksum[g]) << "guest " << g;
    EXPECT_EQ(eager.final_mem[g], lazy.final_mem[g]) << "guest " << g;
    EXPECT_EQ(eager.steps[g], lazy.steps[g]) << "guest " << g;
    EXPECT_EQ(eager.steps[g], u64(kStepsPerGuest)) << "guest " << g;
    EXPECT_EQ(eager.sysreg3[g], lazy.sysreg3[g]) << "guest " << g;
  }
  EXPECT_EQ(eager.console, lazy.console);
  EXPECT_EQ(eager.hypercalls, lazy.hypercalls);
  EXPECT_EQ(eager.vm_switches, lazy.vm_switches);
  EXPECT_EQ(eager.guest_faults_forwarded, lazy.guest_faults_forwarded);
  EXPECT_EQ(eager.virq_injected, lazy.virq_injected);

  // The one documented divergence: each memory-touching VM takes exactly
  // one first-touch materialization fault under lazy boot, charged as a
  // guest-fault-class kernel trap. Nothing else may differ.
  EXPECT_EQ(eager.lazy_space_faults, 0u);
  EXPECT_EQ(lazy.lazy_space_faults, u64(kGuests));
  EXPECT_EQ(lazy.trap_guest_fault,
            eager.trap_guest_fault + lazy.lazy_space_faults);
}

TEST(LazyBootDifferentialTest, HypercallOnLazyVmMaterializesWithoutCharge) {
  // A hypercall that operates *on* guest memory (SD transfer into a guest
  // buffer) must work on a never-touched lazy VM: ensure_space materializes
  // the tables host-side without a charged fault.
  Platform platform;
  KernelConfig cfg;
  cfg.lazy_vm_boot = true;
  Kernel kernel(platform, cfg);
  auto& pd = kernel.create_vm("vm0", 1, std::make_unique<StubGuest>());
  kernel.run_for_us(100);
  GuestContext ctx(kernel, pd, platform.cpu());
  const vaddr_t buf = kGuestUserVa + 0x1000;
  ASSERT_TRUE(ctx.hypercall(Hypercall::kSdTransfer, 0, 2, buf).ok());
  EXPECT_TRUE(pd.has_space());
}

}  // namespace
}  // namespace minova::nova
