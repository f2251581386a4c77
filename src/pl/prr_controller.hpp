// PRR controller — the static logic of the PL (paper §IV.A/§IV.C/§IV.D).
//
// Exposes one register group per PRR, each on its own 4 KB page of the
// AXI_GP0 window, plus a manager-only global control page. Responsibilities
// modeled from the paper:
//   * hardware-task execution state machine (start -> DMA in -> compute ->
//     DMA out -> done/IRQ) with AXI_HP DMA timing,
//   * the hwMMU: every DMA address is checked against the client VM's
//     hardware task data section; out-of-section access is blocked and
//     counted (§IV.C),
//   * PL interrupt management: allocating the 16 IRQF2P sources to tasks
//     (§IV.D),
//   * accepting bitstream loads from the PCAP engine.
//
// Register group layout (word offsets within the PRR's page):
//   0x00 CTRL     w   bit0 START, bit1 IRQ_EN
//   0x04 STATUS   r/w1c  bit0 BUSY, bit1 DONE, bit2 ERROR, bit3 LOADED,
//                        bit4 RECONFIGURING (write 1 to bits1/2 to clear)
//   0x08 TASK_ID  r   currently configured task
//   0x0C SRC_ADDR rw  physical input address (inside the data section)
//   0x10 SRC_LEN  rw
//   0x14 DST_ADDR rw  physical output address (inside the data section)
//   0x18 DST_LEN  r   bytes produced by the last job
//   0x1C IRQ_NUM  r   allocated PL IRQ index (0..15) or ~0
//
// Global control page (manager-only; offsets):
//   0x00 PRR_SELECT rw
//   0x04 HWMMU_BASE w   for the selected PRR
//   0x08 HWMMU_SIZE w
//   0x0C IRQ_ALLOC  rw  write anything: allocate; read result
//   0x10 IRQ_FREE   w   release the selected PRR's IRQ source
//   0x14 UNLOAD     w   drop the configured task (region goes dark)
//   0x18 VIOLATIONS r   hwMMU violation count of the selected PRR
#pragma once

#include <array>
#include <vector>

#include "irq/gic.hpp"
#include "mem/bus.hpp"
#include "pl/prr.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "util/log.hpp"

namespace minova::sim {
class FaultInjector;
}

namespace minova::pl {

// Register offsets (byte) within a PRR register group page.
inline constexpr u32 kRegCtrl = 0x00;
inline constexpr u32 kRegStatus = 0x04;
inline constexpr u32 kRegTaskId = 0x08;
inline constexpr u32 kRegSrcAddr = 0x0C;
inline constexpr u32 kRegSrcLen = 0x10;
inline constexpr u32 kRegDstAddr = 0x14;
inline constexpr u32 kRegDstLen = 0x18;
inline constexpr u32 kRegIrqNum = 0x1C;

// CTRL bits
inline constexpr u32 kCtrlStart = 1u << 0;
inline constexpr u32 kCtrlIrqEn = 1u << 1;
// STATUS bits
inline constexpr u32 kStatusBusy = 1u << 0;
inline constexpr u32 kStatusDone = 1u << 1;
inline constexpr u32 kStatusError = 1u << 2;
inline constexpr u32 kStatusLoaded = 1u << 3;
inline constexpr u32 kStatusReconfiguring = 1u << 4;

// Global page offsets.
inline constexpr u32 kGlobPrrSelect = 0x00;
inline constexpr u32 kGlobHwmmuBase = 0x04;
inline constexpr u32 kGlobHwmmuSize = 0x08;
inline constexpr u32 kGlobIrqAlloc = 0x0C;
inline constexpr u32 kGlobIrqFree = 0x10;
inline constexpr u32 kGlobUnload = 0x14;
inline constexpr u32 kGlobViolations = 0x18;

class PrrController final : public mem::MmioDevice {
 public:
  PrrController(sim::Clock& clock, sim::EventQueue& events, irq::Gic& gic,
                mem::Bus& bus, const hwtask::TaskLibrary& library,
                u32 num_prrs);

  // MmioDevice: offset is relative to kPrrCtrlBase; pages 0..N-1 are the
  // PRR register groups, the page at kPrrMaxRegions is the global page.
  u32 mmio_read(u32 offset) override;
  void mmio_write(u32 offset, u32 value) override;

  u32 num_prrs() const { return u32(prrs_.size()); }
  const PrrState& prr(u32 idx) const { return prrs_[idx]; }

  /// Physical base address of PRR `idx`'s register group page.
  paddr_t reg_group_pa(u32 idx) const;

  /// Called by the PCAP engine when a bitstream download completes. Returns
  /// false when the region misses its reconfiguration deadline (injected
  /// kPrrReconfigTimeout): the PRR is left dark with STATUS.ERROR set.
  bool load_task(u32 prr_idx, hwtask::TaskId task);
  /// Called by the PCAP engine when a transfer starts targeting this PRR.
  void begin_reconfigure(u32 prr_idx);
  /// Called by the PCAP engine when a started transfer aborts: the region's
  /// partial contents are undefined, so it goes dark with STATUS.ERROR.
  void abort_reconfigure(u32 prr_idx);

  /// Restore a preempted task's programmable register state (the §IV.C
  /// consistency record, saved by the manager before eviction). Writes the
  /// stored fields directly — no START pulse, no status side effects — so a
  /// resumed client sees exactly the registers it had programmed. `regs` is
  /// the 8-word register-group image in ascending offset order
  /// (CTRL..IRQ_NUM); only the client-programmable words are applied.
  void restore_registers(u32 idx, const std::array<u32, 8>& regs);

  /// Optional fault injector (owned by the platform); null disables.
  void attach_fault_injector(sim::FaultInjector* fault) { fault_ = fault; }

  u64 reconfig_timeouts() const { return reconfig_timeouts_; }

  /// GIC SPI number for a PL IRQ index.
  static u32 gic_irq_for(u32 pl_index) { return mem::pl_irq_to_gic(pl_index); }

  u64 total_jobs() const;
  u64 total_violations() const;

 private:
  u32 prr_reg_read(u32 idx, u32 reg);
  void prr_reg_write(u32 idx, u32 reg, u32 value);
  u32 global_read(u32 reg);
  void global_write(u32 reg, u32 value);

  void start_job(u32 idx);
  void complete_job(u32 idx);
  bool hwmmu_check(PrrState& p, paddr_t addr, u32 len);

  sim::Clock& clock_;
  sim::EventQueue& events_;
  irq::Gic& gic_;
  mem::Bus& bus_;
  const hwtask::TaskLibrary& library_;
  std::vector<PrrState> prrs_;
  u32 prr_select_ = 0;
  u32 irq_alloc_result_ = PrrState::kNoIrq;
  std::vector<bool> irq_in_use_;
  sim::FaultInjector* fault_ = nullptr;
  u64 reconfig_timeouts_ = 0;
  util::Logger log_{"pl.prrctl"};
};

}  // namespace minova::pl
