// Cortex-A9 MPCore private timer model.
//
// A 32-bit down-counter clocked at CPU/2 with optional auto-reload; raises
// PPI 29 through the GIC on expiry. Mini-NOVA uses it as the kernel
// scheduling tick (the 33 ms guest time quantum of §V.B) and multiplexes
// per-VM virtual timers on top of it.
#pragma once

#include "irq/gic.hpp"
#include "mem/address_map.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace minova::timer {

class PrivateTimer {
 public:
  PrivateTimer(sim::Clock& clock, sim::EventQueue& events, irq::Gic& gic,
               u32 irq_id = mem::kIrqPrivateTimer);

  /// Program the timer: fires after `load` timer ticks (CPU/2 cycles);
  /// re-arms automatically when `auto_reload` is set.
  void start(u32 load, bool auto_reload);
  void stop();
  bool running() const { return running_; }

  /// Remaining timer ticks until expiry at the current simulated time.
  u32 current_value() const;

  /// Interrupt status bit; the kernel's tick handler clears it.
  bool event_flag() const { return event_flag_; }
  void clear_event_flag() { event_flag_ = false; }

  u64 expirations() const { return expirations_; }

  /// Prescaler: private timer counts at half the CPU clock on the A9.
  static constexpr u32 kClockDivider = 2;

 private:
  void arm();
  void on_expiry();

  sim::Clock& clock_;
  sim::EventQueue& events_;
  irq::Gic& gic_;
  u32 irq_id_;

  bool running_ = false;
  bool auto_reload_ = false;
  u32 load_ = 0;
  cycles_t deadline_ = 0;
  sim::EventQueue::EventId pending_event_ = sim::EventQueue::kNoEvent;
  bool event_flag_ = false;
  u64 expirations_ = 0;
};

}  // namespace minova::timer
