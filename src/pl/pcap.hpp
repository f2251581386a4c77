// PCAP (Processor Configuration Access Port) model — the devcfg engine that
// downloads partial bitstreams from DRAM into a PRR (paper §IV.A/§IV.E).
//
// Behaviour modeled:
//   * one transfer at a time (BUSY while streaming),
//   * latency proportional to the bitstream size at ~145 MB/s, the
//     practical PCAP throughput on Zynq-7000,
//   * completion raises the devcfg IRQ so the launching VM can overlap the
//     reconfiguration with its own work (§IV.E stage 6), and notifies the
//     PRR controller to mark the region configured.
//
// Register map (word offsets):
//   0x00 CTRL     w   bit0 START
//   0x04 STATUS   r/w1c  bit0 BUSY, bit1 DONE, bit2 ERROR
//   0x08 SRC_ADDR rw  physical address of the .bit image
//   0x0C LEN      rw  bytes
//   0x10 TARGET   rw  PRR index
//   0x14 TASK_ID  rw  task carried by the bitstream (models the header)
#pragma once

#include <functional>

#include "irq/gic.hpp"
#include "mem/bus.hpp"
#include "pl/prr_controller.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "util/log.hpp"

namespace minova::pl {

inline constexpr u32 kPcapCtrl = 0x00;
inline constexpr u32 kPcapStatus = 0x04;
inline constexpr u32 kPcapSrcAddr = 0x08;
inline constexpr u32 kPcapLen = 0x0C;
inline constexpr u32 kPcapTarget = 0x10;
inline constexpr u32 kPcapTaskId = 0x14;

inline constexpr u32 kPcapStatusBusy = 1u << 0;
inline constexpr u32 kPcapStatusDone = 1u << 1;
inline constexpr u32 kPcapStatusError = 1u << 2;

/// CPU cycles per byte transferred: 660 MHz / 145 MB/s ~= 4.55.
inline constexpr double kPcapCyclesPerByte = 4.55;
inline constexpr u32 kPcapSetupCycles = 1200;  // DevC DMA + header parsing

class Pcap final : public mem::MmioDevice {
 public:
  /// Notified at the end of every transfer attempt — success or failure —
  /// so the hardware task manager can drive its retry policy without
  /// polling. Failed transfers do NOT raise the devcfg IRQ (the region is
  /// not configured); the observer is the only failure signal.
  using CompletionObserver = std::function<void(u32 prr, u32 task, bool ok)>;

  Pcap(sim::Clock& clock, sim::EventQueue& events, irq::Gic& gic,
       PrrController& controller);

  u32 mmio_read(u32 offset) override;
  void mmio_write(u32 offset, u32 value) override;

  bool busy() const { return busy_; }
  u64 transfers_completed() const { return transfers_completed_; }

  /// Optional fault injector (owned by the platform); null disables.
  void attach_fault_injector(sim::FaultInjector* fault) { fault_ = fault; }
  void set_completion_observer(CompletionObserver obs) {
    observer_ = std::move(obs);
  }

  u64 crc_errors() const { return crc_errors_; }
  u64 transfer_errors() const { return transfer_errors_; }
  u64 stalls() const { return stalls_; }
  u64 region_busy_errors() const { return region_busy_errors_; }

  /// Latency a transfer of `bytes` will take (for tests/benches).
  cycles_t transfer_cycles(u32 bytes) const {
    return kPcapSetupCycles + cycles_t(double(bytes) * kPcapCyclesPerByte);
  }

 private:
  void start();
  void complete();
  void fail(bool begun, const char* why);

  sim::Clock& clock_;
  sim::EventQueue& events_;
  irq::Gic& gic_;
  PrrController& controller_;

  bool busy_ = false;
  bool done_ = false;
  bool error_ = false;
  u32 src_addr_ = 0;
  u32 len_ = 0;
  u32 target_ = 0;
  u32 task_id_ = 0;
  u64 transfers_completed_ = 0;
  sim::FaultInjector* fault_ = nullptr;
  CompletionObserver observer_;
  u64 crc_errors_ = 0;
  u64 transfer_errors_ = 0;
  u64 stalls_ = 0;
  u64 region_busy_errors_ = 0;
  util::Logger log_{"pl.pcap"};
};

}  // namespace minova::pl
