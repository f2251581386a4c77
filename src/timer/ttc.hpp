// Triple Timer Counter (TTC) model — the Zynq PS peripheral guests use for
// their own tick sources when running natively. Under Mini-NOVA the guest's
// timer is replaced by a kernel-provided virtual timer; the native uC/OS-II
// baseline keeps using this device directly, so both execution modes have a
// real tick source.
#pragma once

#include <array>

#include "irq/gic.hpp"
#include "mem/address_map.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace minova::timer {

class Ttc {
 public:
  static constexpr u32 kChannels = 3;

  Ttc(sim::Clock& clock, sim::EventQueue& events, irq::Gic& gic,
      u32 irq_base = mem::kIrqTtc0_0);

  /// Program channel `ch` for interval mode: IRQ every `interval` input
  /// clocks scaled by 2^(prescale+1).
  void start_interval(u32 ch, u32 interval, u32 prescale);
  void stop(u32 ch);
  bool running(u32 ch) const { return chan_[ch].running; }
  u64 expirations(u32 ch) const { return chan_[ch].expirations; }

 private:
  struct Channel {
    bool running = false;
    u32 interval = 0;
    u32 prescale = 0;
    sim::EventQueue::EventId event = sim::EventQueue::kNoEvent;
    u64 expirations = 0;
  };

  void arm(u32 ch);

  sim::Clock& clock_;
  sim::EventQueue& events_;
  irq::Gic& gic_;
  u32 irq_base_;
  std::array<Channel, kChannels> chan_{};
};

}  // namespace minova::timer
