// Security demo (§IV.C): what the hwMMU and the per-VM interface mapping
// actually stop.
//
// Boots two guests. The "attacker" legitimately obtains a hardware task,
// then tries to use the accelerator's DMA engine to read the victim's
// hardware task data section. The hwMMU blocks the access and the static
// logic reports the violation. Then the victim claims the same task and
// the attacker's mapped interface page disappears from its address space.
#include <cstdio>

#include "hwmgr/manager.hpp"
#include "pl/prr_controller.hpp"
#include "ucos/guest.hpp"

using namespace minova;
using nova::GuestContext;
using nova::Hypercall;

namespace {

class QuietGuest final : public nova::GuestOs {
 public:
  const char* guest_name() const override { return "guest"; }
  void boot(GuestContext& ctx) override {
    ctx.hypercall(Hypercall::kIrqSetEntry, 0, 0x8000);
  }
  nova::StepExit step(GuestContext&, cycles_t) override {
    return nova::StepExit::kYield;
  }
  void on_virq(GuestContext& ctx, u32 irq) override {
    ctx.hypercall(Hypercall::kIrqComplete, irq);
  }
};

}  // namespace

int main() {
  Platform platform;
  nova::Kernel kernel(platform);
  hwmgr::ManagerService manager(kernel);
  manager.install(2);
  auto& victim = kernel.create_vm("victim", 1,
                                  std::make_unique<QuietGuest>());
  auto& attacker = kernel.create_vm("attacker", 1,
                                    std::make_unique<QuietGuest>());
  kernel.run_for_us(200);

  // Plant a "secret" in the victim's hardware task data section.
  platform.dram().write32(victim.hw_data_pa, 0x5EC2E7);
  std::printf("victim's data section @%08x holds secret 0x5EC2E7\n",
              victim.hw_data_pa);

  // Attacker legitimately acquires QAM-4.
  GuestContext actx(kernel, attacker, platform.cpu());
  auto res = actx.hypercall(Hypercall::kHwTaskRequest,
                            hwtask::TaskLibrary::kQam4,
                            nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  std::printf("attacker requests QAM-4: status=%d reconfig=%u\n",
              int(res.status), res.r1);
  cycles_t dl;
  const cycles_t pcap_horizon =
      platform.clock().now() + platform.clock().ms_to_cycles(30);
  while (platform.events().next_deadline(dl) && dl < pcap_horizon) {
    platform.clock().advance_to(dl);
    platform.pump();
  }

  // Attack 1: DMA from the victim's section.
  std::printf("\n[attack 1] program accelerator DMA to read the victim's "
              "section...\n");
  auto& cpu = platform.cpu();
  cpu.vwrite32(nova::kGuestHwIfaceVa + pl::kRegSrcAddr, victim.hw_data_pa);
  cpu.vwrite32(nova::kGuestHwIfaceVa + pl::kRegSrcLen, 64);
  cpu.vwrite32(nova::kGuestHwIfaceVa + pl::kRegDstAddr, attacker.hw_data_pa);
  cpu.vwrite32(nova::kGuestHwIfaceVa + pl::kRegCtrl, pl::kCtrlStart);
  const u32 status = cpu.vread32(nova::kGuestHwIfaceVa + pl::kRegStatus).value;
  std::printf("  -> STATUS=0x%x (ERROR=%d), hwMMU violations=%llu, "
              "attacker's copy holds 0x%x\n",
              status, (status & pl::kStatusError) ? 1 : 0,
              (unsigned long long)platform.prr_controller().total_violations(),
              platform.dram().read32(attacker.hw_data_pa));

  // Attack 2: try to gain the manager's authority — map the PL global
  // control page (absolute device mapping) into the guest's own space.
  std::printf("\n[attack 2] map the PL global control page via the "
              "map_insert hypercall...\n");
  const auto poke =
      actx.hypercall(Hypercall::kMapInsert, 0xFFFF'FFFFu, 0x00F0'0000u,
                     mem::kPrrGlobalRegsBase, /*device flag=*/1);
  std::printf("  -> status=%d (%s)\n", int(poke.status),
              poke.ok() ? "SUCCEEDED (BAD!)"
                        : "denied: a guest maps only its own slab");

  // Reclaim: the victim requests the same task.
  std::printf("\n[reclaim] victim requests QAM-4...\n");
  GuestContext vctx(kernel, victim, platform.cpu());
  vctx.hypercall(Hypercall::kHwTaskRequest, hwtask::TaskLibrary::kQam4,
                 nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  const bool attacker_mapped =
      attacker.space().translate_raw(nova::kGuestHwIfaceVa).has_value();
  const u32 flag = platform.dram().read32(
      attacker.hw_data_pa + hwmgr::consistency_offset(attacker.hw_data_size));
  std::printf("  -> attacker's interface page mapped: %s; consistency flag "
              "in its data section: %s\n",
              attacker_mapped ? "still (BAD!)" : "no (demapped)",
              flag == hwmgr::kStateInconsistent ? "inconsistent (as designed)"
                                                : "consistent (BAD!)");

  const bool ok = (status & pl::kStatusError) &&
                  platform.dram().read32(attacker.hw_data_pa) == 0 &&
                  !poke.ok() && !attacker_mapped &&
                  flag == hwmgr::kStateInconsistent;
  std::printf("\n%s\n", ok ? "All attacks contained." : "CONTAINMENT FAILED");
  return ok ? 0 : 1;
}
