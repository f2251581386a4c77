// The simulated Zynq-7000 platform: processing system (Cortex-A9 core,
// caches, MMU, GIC, timers, DDR, OCM) plus programmable logic (PRR
// controller, PCAP, hardware-task fabric), wired to a single deterministic
// clock and event queue.
//
// This is the "board" every experiment runs on — the synthetic stand-in for
// the paper's ZedBoard-class hardware (see DESIGN.md §2 for the
// substitution rationale).
#pragma once

#include <memory>
#include <vector>

#include "core/uart.hpp"
#include "cpu/core.hpp"
#include "hwtask/library.hpp"
#include "irq/gic.hpp"
#include "mem/address_map.hpp"
#include "mem/bus.hpp"
#include "mem/phys_mem.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "timer/private_timer.hpp"
#include "timer/ttc.hpp"

namespace minova {

struct PlatformConfig {
  sim::FaultConfig fault{};  // disabled by default: bit-identical baseline
  // Floorplan: paper default is 2 large (FFT-capable) + 2 small regions.
  // The task library's PRR-compatibility lists are derived from the same
  // numbers.
  u32 large_prrs = 2;
  u32 small_prrs = 2;
};

class Platform {
 public:
  explicit Platform(const PlatformConfig& cfg = {});

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Fire due device events and refresh the CPU's IRQ line.
  void pump();

  /// Advance idle time to the next device event (or `limit`), then pump.
  /// Returns false when no event exists before `limit`.
  bool idle_until_next_event(cycles_t limit);

  sim::Clock& clock() { return clock_; }
  sim::EventQueue& events() { return events_; }
  sim::StatsRegistry& stats() { return stats_; }
  sim::TraceBuffer& trace() { return trace_; }
  mem::PhysMem& dram() { return dram_; }
  mem::Bus& bus() { return bus_; }
  irq::Gic& gic() { return gic_; }
  /// The CPU lane the simulator is currently modeling. With one lane (the
  /// default) this is *the* Cortex-A9 core, exactly as before SMP.
  cpu::Core& cpu() { return *lanes_[active_lane_]; }
  timer::PrivateTimer& private_timer() { return ptimer_; }
  timer::Ttc& ttc() { return ttc_; }
  hwtask::TaskLibrary& task_library() { return library_; }
  sim::FaultInjector& fault() { return fault_; }
  pl::PrrController& prr_controller() { return prrctl_; }
  pl::Pcap& pcap() { return pcap_; }
  dev::Uart& uart() { return uart0_; }

  const PlatformConfig& config() const { return cfg_; }

  // ---- SMP lanes (DESIGN.md §14) ----
  // Each simulated core is a full private cpu::Core ("lane"): register
  // file, VFP bank, MMU, TLB and cache hierarchy, all over the one shared
  // bus/DRAM. Lane 0 is the original `cpu_` member, so a one-lane platform
  // is byte-for-byte the pre-SMP machine.
  /// Materialize lanes 1..n-1 (idempotent; lane 0 always exists).
  void configure_lanes(u32 n);
  u32 num_lanes() const { return u32(lanes_.size()); }
  cpu::Core& lane(u32 i) { return *lanes_[i]; }
  /// Select which lane `cpu()` returns. Host-side bookkeeping only.
  void set_active_lane(u32 i) { active_lane_ = i; }

 private:
  PlatformConfig cfg_;
  sim::Clock clock_;
  sim::EventQueue events_;
  sim::StatsRegistry stats_;
  sim::TraceBuffer trace_;
  mem::PhysMem dram_;
  mem::PhysMem ocm_;
  mem::Bus bus_;
  irq::Gic gic_;
  cpu::Core cpu_;
  // lanes_[0] == &cpu_; lanes beyond 0 are owned here.
  std::vector<cpu::Core*> lanes_;
  std::vector<std::unique_ptr<cpu::Core>> extra_lanes_;
  u32 active_lane_ = 0;
  timer::PrivateTimer ptimer_;
  timer::Ttc ttc_;
  hwtask::TaskLibrary library_;
  sim::FaultInjector fault_;
  pl::PrrController prrctl_;
  pl::Pcap pcap_;
  dev::Uart uart0_;
};

}  // namespace minova
