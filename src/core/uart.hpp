// Zynq PS UART model (Cadence UART, subset).
//
// A word-oriented MMIO device with a TX FIFO that drains at a programmable
// baud rate and raises the TX-empty interrupt. The Mini-NOVA kernel routes
// the guests' uart_write hypercalls through this device; the native system
// programs it directly. Captured output is exposed for tests and demos.
//
// Register map (byte offsets, after UG585's r_uart):
//   0x00 CTRL     w   bit0 TXEN, bit1 FIFO flush
//   0x04 MODE     rw  (stored, not interpreted)
//   0x08 BAUDGEN  rw  divider: cycles per character (0 = instant)
//   0x0C STATUS   r   bit0 TXFULL, bit1 TXEMPTY
//   0x10 FIFO     w   enqueue one character
//   0x14 IER      rw  bit0: TX-empty interrupt enable
#pragma once

#include <deque>
#include <string>

#include "irq/gic.hpp"
#include "mem/bus.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace minova::dev {

inline constexpr u32 kUartCtrl = 0x00;
inline constexpr u32 kUartMode = 0x04;
inline constexpr u32 kUartBaudgen = 0x08;
inline constexpr u32 kUartStatus = 0x0C;
inline constexpr u32 kUartFifo = 0x10;
inline constexpr u32 kUartIer = 0x14;

inline constexpr u32 kUartStatusTxFull = 1u << 0;
inline constexpr u32 kUartStatusTxEmpty = 1u << 1;

class Uart final : public mem::MmioDevice {
 public:
  static constexpr u32 kFifoDepth = 64;

  Uart(sim::Clock& clock, sim::EventQueue& events, irq::Gic& gic,
       u32 irq_id = mem::kIrqUart0);

  u32 mmio_read(u32 offset) override;
  void mmio_write(u32 offset, u32 value) override;

  /// Everything the device has transmitted so far.
  const std::string& transmitted() const { return tx_log_; }
  std::size_t fifo_level() const { return fifo_.size(); }
  u64 chars_dropped() const { return dropped_; }

 private:
  void schedule_drain();
  void drain_one();

  sim::Clock& clock_;
  sim::EventQueue& events_;
  irq::Gic& gic_;
  u32 irq_id_;

  bool tx_enabled_ = true;
  u32 mode_ = 0;
  u32 baud_cycles_ = 5734;  // ~115200 baud (10 bit-times) at 660 MHz
  u32 ier_ = 0;
  std::deque<char> fifo_;
  bool draining_ = false;
  std::string tx_log_;
  u64 dropped_ = 0;
};

}  // namespace minova::dev
