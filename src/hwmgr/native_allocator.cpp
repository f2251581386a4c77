#include "hwmgr/native_allocator.hpp"

#include "nova/kmem.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"

namespace minova::hwmgr {

using workloads::HwReqStatus;

NativeAllocator::NativeAllocator(Platform& platform, cpu::CodeLayout& code)
    : platform_(platform),
      prr_table_(platform.prr_controller().num_prrs()),
      table_pa_(nova::vm_phys_base(0) + 0x8000) {
  rg_alloc_ = code.place(1536);
  rg_tables_ = code.place(384);
}

void NativeAllocator::touch_tables(u32 task) {
  // Task table row + PRR table scan, as real memory traffic.
  auto& core = platform_.cpu();
  const paddr_t task_row = table_pa_ + (task % 64) * 32;
  for (u32 w = 0; w < 8; ++w) (void)core.vread32(task_row + w * 4);
  for (u32 prr = 0; prr < prr_table_.size(); ++prr)
    for (u32 w = 0; w < 8; ++w)
      (void)core.vread32(table_pa_ + 0x800 + prr * 32 + w * 4);
}

u32 NativeAllocator::ensure_irq(u32 prr) {
  if (prr_table_[prr].irq_index != 0xFFFF'FFFFu)
    return prr_table_[prr].irq_index;
  auto& core = platform_.cpu();
  const paddr_t glob = mem::kPrrGlobalRegsBase;
  (void)core.vwrite32(glob + pl::kGlobPrrSelect, prr);
  (void)core.vwrite32(glob + pl::kGlobIrqAlloc, 1);
  const auto r = core.vread32(glob + pl::kGlobIrqAlloc);
  prr_table_[prr].irq_index = r.value;
  if (r.value < mem::kNumPlIrqs)
    platform_.gic().enable_irq(mem::pl_irq_to_gic(r.value));
  return r.value;
}

NativeGrant NativeAllocator::request(u32 task_id, paddr_t data_pa,
                                     u32 data_size) {
  auto& core = platform_.cpu();
  const cycles_t t0 = core.clock().now();
  NativeGrant grant;

  core.exec_code(rg_alloc_);
  core.exec_code(rg_tables_);
  touch_tables(task_id);
  core.spend_insns(kInsnsValidate);

  const hwtask::TaskInfo* info = platform_.task_library().find(task_id);
  const auto& prrctl = platform_.prr_controller();
  if (info == nullptr) return grant;

  // PRR selection: resident-task first, then any idle compatible region.
  int chosen = -1;
  bool reconfig = false;
  for (u32 prr : info->compatible_prrs) {
    // Same per-candidate evaluation as the manager service: table row plus
    // a live status register read.
    u32 v = 0;
    (void)platform_.bus().read32(prrctl.reg_group_pa(prr) + pl::kRegStatus, v);
    core.spend(core.caches().access_device());
    core.spend_insns(kInsnsSelectPerPrr);
    if (prrctl.prr(prr).busy || prrctl.prr(prr).reconfiguring) continue;
    if (prrctl.prr(prr).loaded_task == task_id) {
      chosen = int(prr);
      break;
    }
  }
  if (chosen < 0) {
    // Prefer an unowned idle region; fall back to reconfiguring an owned
    // one (same policy as the virtualized manager).
    int fallback = -1;
    for (u32 prr : info->compatible_prrs) {
      if (prrctl.prr(prr).busy || prrctl.prr(prr).reconfiguring) continue;
      if (!prr_table_[prr].owned) {
        chosen = int(prr);
        break;
      }
      if (fallback < 0) fallback = int(prr);
    }
    if (chosen < 0) chosen = fallback;
    reconfig = chosen >= 0;
  }
  if (chosen < 0) {
    grant.status = HwReqStatus::kBusy;
    exec_us_.add(platform_.clock().cycles_to_us(core.clock().now() - t0));
    return grant;
  }

  // hwMMU window (same static-logic programming as the virtualized path).
  core.spend_insns(kInsnsHwmmu);
  const paddr_t glob = mem::kPrrGlobalRegsBase;
  (void)core.vwrite32(glob + pl::kGlobPrrSelect, u32(chosen));
  (void)core.vwrite32(glob + pl::kGlobHwmmuBase, data_pa);
  (void)core.vwrite32(glob + pl::kGlobHwmmuSize, data_size);

  const u32 irq_idx = ensure_irq(u32(chosen));
  grant.pl_irq = irq_idx < mem::kNumPlIrqs ? mem::pl_irq_to_gic(irq_idx) : 0;

  if (reconfig && prrctl.prr(u32(chosen)).loaded_task != task_id) {
    const paddr_t pcap = mem::kDevcfgBase;
    const auto busy = core.vread32(pcap + pl::kPcapStatus);
    if (busy.value & pl::kPcapStatusBusy) {
      grant.status = HwReqStatus::kBusy;
      exec_us_.add(platform_.clock().cycles_to_us(core.clock().now() - t0));
      return grant;
    }
    core.spend_insns(kInsnsPcap);
    // The bitstream store is ordinary memory in the native system.
    (void)core.vwrite32(pcap + pl::kPcapSrcAddr, nova::kBitstreamBase);
    (void)core.vwrite32(pcap + pl::kPcapLen, info->bitstream_bytes);
    (void)core.vwrite32(pcap + pl::kPcapTarget, u32(chosen));
    (void)core.vwrite32(pcap + pl::kPcapTaskId, task_id);
    (void)core.vwrite32(pcap + pl::kPcapCtrl, 1);
    ++pcap_launches_;
    grant.status = HwReqStatus::kGrantedReconfig;
  } else {
    grant.status = HwReqStatus::kGranted;
  }
  prr_table_[u32(chosen)] = Entry{task_id, true, prr_table_[u32(chosen)].irq_index};
  // Table writeback.
  core.spend_insns(kInsnsTableUpdate);
  for (u32 w = 0; w < 8; ++w)
    (void)core.vwrite32(table_pa_ + 0x800 + u32(chosen) * 32 + w * 4, 0);
  grant.prr = u32(chosen);
  exec_us_.add(platform_.clock().cycles_to_us(core.clock().now() - t0));
  return grant;
}

bool NativeAllocator::release(u32 task_id) {
  for (u32 prr = 0; prr < prr_table_.size(); ++prr) {
    if (prr_table_[prr].owned && prr_table_[prr].task == task_id &&
        !platform_.prr_controller().prr(prr).busy) {
      prr_table_[prr].owned = false;
      return true;
    }
  }
  return false;
}

}  // namespace minova::hwmgr
