#include "pl/prr_controller.hpp"

#include <algorithm>

#include "mem/address_map.hpp"
#include "sim/fault.hpp"
#include "util/assert.hpp"

namespace minova::pl {

PrrController::PrrController(sim::Clock& clock, sim::EventQueue& events,
                             irq::Gic& gic, mem::Bus& bus,
                             const hwtask::TaskLibrary& library,
                             u32 num_prrs)
    : clock_(clock),
      events_(events),
      gic_(gic),
      bus_(bus),
      library_(library),
      prrs_(num_prrs),
      irq_in_use_(mem::kNumPlIrqs, false) {
  MINOVA_CHECK(num_prrs != 0);
  MINOVA_CHECK(num_prrs <= mem::kPrrMaxRegions);
}

paddr_t PrrController::reg_group_pa(u32 idx) const {
  MINOVA_CHECK(idx < prrs_.size());
  return mem::kPrrCtrlBase + idx * mem::kPrrRegGroupStride;
}

u32 PrrController::mmio_read(u32 offset) {
  const u32 page = offset / mem::kPrrRegGroupStride;
  const u32 reg = offset % mem::kPrrRegGroupStride;
  if (page < prrs_.size()) return prr_reg_read(page, reg);
  if (page == mem::kPrrMaxRegions) return global_read(reg);
  log_.warn("read from unmapped PL page %u", page);
  return 0;
}

void PrrController::mmio_write(u32 offset, u32 value) {
  const u32 page = offset / mem::kPrrRegGroupStride;
  const u32 reg = offset % mem::kPrrRegGroupStride;
  if (page < prrs_.size()) {
    prr_reg_write(page, reg, value);
  } else if (page == mem::kPrrMaxRegions) {
    global_write(reg, value);
  } else {
    log_.warn("write to unmapped PL page %u", page);
  }
}

u32 PrrController::prr_reg_read(u32 idx, u32 reg) {
  PrrState& p = prrs_[idx];
  switch (reg) {
    case kRegCtrl: return p.ctrl;
    case kRegStatus: {
      u32 s = 0;
      if (p.busy) s |= kStatusBusy;
      if (p.done) s |= kStatusDone;
      if (p.error) s |= kStatusError;
      if (p.loaded_task != hwtask::kInvalidTask) s |= kStatusLoaded;
      if (p.reconfiguring) s |= kStatusReconfiguring;
      return s;
    }
    case kRegTaskId: return p.loaded_task;
    case kRegSrcAddr: return p.src_addr;
    case kRegSrcLen: return p.src_len;
    case kRegDstAddr: return p.dst_addr;
    case kRegDstLen: return p.dst_len;
    case kRegIrqNum: return p.irq_index;
    default: return 0;
  }
}

void PrrController::prr_reg_write(u32 idx, u32 reg, u32 value) {
  PrrState& p = prrs_[idx];
  switch (reg) {
    case kRegCtrl:
      p.ctrl = value & kCtrlIrqEn;  // START is a pulse, not stored
      if (value & kCtrlStart) start_job(idx);
      break;
    case kRegStatus:
      if (value & kStatusDone) p.done = false;
      if (value & kStatusError) p.error = false;
      break;
    case kRegSrcAddr: p.src_addr = value; break;
    case kRegSrcLen: p.src_len = value; break;
    case kRegDstAddr: p.dst_addr = value; break;
    default:
      break;  // read-only or unknown registers ignore writes
  }
}

u32 PrrController::global_read(u32 reg) {
  const PrrState& p = prrs_[std::min<u32>(prr_select_, num_prrs() - 1)];
  switch (reg) {
    case kGlobPrrSelect: return prr_select_;
    case kGlobIrqAlloc: return irq_alloc_result_;
    case kGlobViolations: return u32(p.hwmmu_violations);
    default: return 0;
  }
}

void PrrController::global_write(u32 reg, u32 value) {
  if (reg == kGlobPrrSelect) {
    MINOVA_CHECK_MSG(value < num_prrs(), "PRR_SELECT out of range");
    prr_select_ = value;
    return;
  }
  PrrState& p = prrs_[prr_select_];
  switch (reg) {
    case kGlobHwmmuBase:
      p.hwmmu_base = value;
      break;
    case kGlobHwmmuSize:
      p.hwmmu_size = value;
      break;
    case kGlobIrqAlloc: {
      (void)value;
      if (p.irq_index != PrrState::kNoIrq) {
        irq_alloc_result_ = p.irq_index;  // idempotent
        return;
      }
      irq_alloc_result_ = PrrState::kNoIrq;
      for (u32 i = 0; i < irq_in_use_.size(); ++i) {
        if (!irq_in_use_[i]) {
          irq_in_use_[i] = true;
          p.irq_index = i;
          irq_alloc_result_ = i;
          break;
        }
      }
      break;
    }
    case kGlobIrqFree:
      if (p.irq_index != PrrState::kNoIrq) {
        irq_in_use_[p.irq_index] = false;
        p.irq_index = PrrState::kNoIrq;
      }
      break;
    case kGlobUnload:
      MINOVA_CHECK_MSG(!p.busy, "unloading a busy PRR");
      p.loaded_task = hwtask::kInvalidTask;
      p.core.reset();
      p.done = p.error = false;
      break;
    default:
      break;
  }
}

bool PrrController::hwmmu_check(PrrState& p, paddr_t addr, u32 len) {
  const bool inside = p.hwmmu_size > 0 && addr >= p.hwmmu_base &&
                      u64(addr) + len <= u64(p.hwmmu_base) + p.hwmmu_size;
  if (!inside) {
    ++p.hwmmu_violations;
    log_.debug("hwMMU violation: [%08x,+%u) outside [%08x,+%u)", addr, len,
               p.hwmmu_base, p.hwmmu_size);
  }
  return inside;
}

void PrrController::start_job(u32 idx) {
  PrrState& p = prrs_[idx];
  if (p.busy || p.reconfiguring || p.core == nullptr) {
    p.error = true;
    return;
  }
  // The hwMMU validates the input window up front; the output window is
  // validated at writeback when the produced length is known.
  if (!hwmmu_check(p, p.src_addr, p.src_len)) {
    p.error = true;
    p.done = true;  // job "finishes" immediately with error
    return;
  }
  p.busy = true;
  p.done = false;
  p.error = false;
  // AXI_HP DMA in and out: a fixed burst setup plus per-byte streaming
  // (~1.1 GB/s against the 660 MHz CPU clock). DMA out is estimated with
  // the input size; the writeback event adjusts nothing further (output DMA
  // overlaps the tail of compute in streaming cores, so a single
  // post-compute estimate is adequate).
  constexpr cycles_t kDmaSetupCycles = 200;
  constexpr cycles_t kDmaCyclesPer8Bytes = 5;
  const cycles_t dma =
      kDmaSetupCycles + cycles_t(p.src_len) / 8 * kDmaCyclesPer8Bytes;
  const cycles_t compute = p.core->latency_cycles(p.src_len);
  events_.schedule_at(clock_.now() + dma + compute + dma,
                      [this, idx] { complete_job(idx); });
}

void PrrController::complete_job(u32 idx) {
  PrrState& p = prrs_[idx];
  MINOVA_CHECK(p.busy);
  // Fetch input from the data section via the AXI_HP master path.
  std::vector<u8> in(p.src_len);
  mem::PhysMem* src_ram = bus_.ram_at(p.src_addr, p.src_len);
  if (src_ram == nullptr) {
    p.busy = false;
    p.error = true;
    p.done = true;
    return;
  }
  src_ram->read_block(p.src_addr, in);

  std::vector<u8> out = p.core->process(in);
  p.dst_len = u32(out.size());

  if (!hwmmu_check(p, p.dst_addr, u32(out.size()))) {
    p.busy = false;
    p.error = true;
    p.done = true;
    // The blocked write never reaches memory; still notify the client.
  } else {
    mem::PhysMem* dst_ram = bus_.ram_at(p.dst_addr, u32(out.size()));
    MINOVA_CHECK(dst_ram != nullptr);
    dst_ram->write_block(p.dst_addr, out);
    p.busy = false;
    p.done = true;
    ++p.jobs_completed;
  }
  if ((p.ctrl & kCtrlIrqEn) && p.irq_index != PrrState::kNoIrq)
    gic_.raise(gic_irq_for(p.irq_index));
}

void PrrController::begin_reconfigure(u32 prr_idx) {
  MINOVA_CHECK(prr_idx < prrs_.size());
  PrrState& p = prrs_[prr_idx];
  MINOVA_CHECK_MSG(!p.busy, "reconfiguring a busy PRR");
  p.reconfiguring = true;
  p.loaded_task = hwtask::kInvalidTask;
  p.core.reset();
}

void PrrController::abort_reconfigure(u32 prr_idx) {
  MINOVA_CHECK(prr_idx < prrs_.size());
  PrrState& p = prrs_[prr_idx];
  p.reconfiguring = false;
  p.loaded_task = hwtask::kInvalidTask;
  p.core.reset();
  p.error = true;
  log_.debug("PRR%u reconfiguration aborted; region dark", prr_idx);
}

bool PrrController::load_task(u32 prr_idx, hwtask::TaskId task) {
  MINOVA_CHECK(prr_idx < prrs_.size());
  PrrState& p = prrs_[prr_idx];
  const hwtask::TaskInfo* info = library_.find(task);
  MINOVA_CHECK_MSG(info != nullptr, "loading unknown task");
  const auto& compat = info->compatible_prrs;
  MINOVA_CHECK_MSG(
      std::find(compat.begin(), compat.end(), prr_idx) != compat.end(),
      "bitstream does not fit this PRR");
  if (fault_ != nullptr &&
      fault_->should_fail(sim::FaultSite::kPrrReconfigTimeout)) {
    // The region never signals reconfiguration-done within its deadline:
    // its contents are undefined, so it goes dark instead of half-loaded.
    ++reconfig_timeouts_;
    p.reconfiguring = false;
    p.loaded_task = hwtask::kInvalidTask;
    p.core.reset();
    p.error = true;
    log_.debug("PRR%u reconfiguration timeout loading %s", prr_idx,
               info->name.c_str());
    return false;
  }
  p.loaded_task = task;
  p.core = library_.instantiate(task);
  p.reconfiguring = false;
  p.done = p.error = false;
  log_.debug("PRR%u configured with %s", prr_idx, info->name.c_str());
  return true;
}

void PrrController::restore_registers(u32 idx, const std::array<u32, 8>& regs) {
  MINOVA_CHECK(idx < prrs_.size());
  PrrState& p = prrs_[idx];
  MINOVA_CHECK_MSG(!p.busy && !p.reconfiguring,
                   "restoring registers into an active PRR");
  p.ctrl = regs[kRegCtrl / 4] & kCtrlIrqEn;  // START was a pulse, not state
  p.src_addr = regs[kRegSrcAddr / 4];
  p.src_len = regs[kRegSrcLen / 4];
  p.dst_addr = regs[kRegDstAddr / 4];
  p.dst_len = regs[kRegDstLen / 4];
}

u64 PrrController::total_jobs() const {
  u64 n = 0;
  for (const auto& p : prrs_) n += p.jobs_completed;
  return n;
}

u64 PrrController::total_violations() const {
  u64 n = 0;
  for (const auto& p : prrs_) n += p.hwmmu_violations;
  return n;
}

}  // namespace minova::pl
