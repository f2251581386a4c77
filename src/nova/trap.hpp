// Trap-entry choreography and centralized trap accounting.
//
// Every kernel entry — hypercall gate, physical IRQ, guest fault, lazy-VFP
// UND trap, manager service call — performs the same sequence: exception
// entry (pipeline flush + mode switch), vector fetch, one or more kernel
// text regions, then the exception return. `TrapGuard` owns that sequence
// as an RAII scope so the charging cannot be copy-pasted apart again:
// construction charges entry + vector, `exec()` charges each kernel routine
// executed inside the trap, destruction charges the exception return.
//
// The guard is also the single point where traps are counted: each kind
// increments one `kernel.trap.<kind>` counter, giving the per-exception
// event accounting the Table III instrumentation builds on. Counters are
// free (no simulated cycles), so accounting never perturbs latency. The
// counters are interned once into `TrapCounters` (kernel construction
// time), so trap entry bumps a raw slot instead of hashing a name per
// event.
#pragma once

#include <array>

#include "cpu/code_region.hpp"
#include "cpu/core.hpp"
#include "cpu/mode.hpp"
#include "sim/stats.hpp"

namespace minova::nova {

/// Why the kernel was entered. Indexes the trap counters.
enum class TrapKind : u8 {
  kHypercall = 0,  // SVC gate (including unknown numbers)
  kIrq,            // physical interrupt
  kGuestFault,     // forwarded guest abort (ABT)
  kVfpSwitch,      // lazy-VFP UND trap
  kServiceCall,    // manager -> kernel nested service call
  kCount,
};

constexpr const char* trap_kind_name(TrapKind k) {
  switch (k) {
    case TrapKind::kHypercall: return "hypercall";
    case TrapKind::kIrq: return "irq";
    case TrapKind::kGuestFault: return "guest_fault";
    case TrapKind::kVfpSwitch: return "vfp_switch";
    case TrapKind::kServiceCall: return "service_call";
    case TrapKind::kCount: break;
  }
  return "?";
}

/// The `kernel.trap.<kind>` counters, resolved once into stable handles
/// so the trap hot path never hashes a counter name.
class TrapCounters {
 public:
  explicit TrapCounters(sim::StatsRegistry& stats);
  sim::CounterHandle& operator[](TrapKind kind) {
    return by_kind_[u32(kind)];
  }
  u64 count(TrapKind kind) const { return by_kind_[u32(kind)].value(); }

 private:
  std::array<sim::CounterHandle, u32(TrapKind::kCount)> by_kind_;
};

class TrapGuard {
 public:
  /// Enter the trap: records the pre-entry timestamp, bumps the trap
  /// counter, charges the exception entry and the vector fetch.
  TrapGuard(cpu::Core& core, TrapCounters& counters, cpu::Exception exc,
            const cpu::CodeRegion& vector, TrapKind kind,
            cpu::Mode resume = cpu::Mode::kUsr);
  /// Leave the trap: charges the exception return to `resume`.
  ~TrapGuard();

  TrapGuard(const TrapGuard&) = delete;
  TrapGuard& operator=(const TrapGuard&) = delete;

  /// Charge one kernel routine executed inside the trap (I-cache fetch of
  /// its text footprint + pipeline cycles).
  void exec(const cpu::CodeRegion& region, double fraction = 1.0);

  /// Clock value captured before the exception entry was charged — the
  /// trap's t0 for latency measurements (e.g. the PL IRQ entry row).
  cycles_t entry_time() const { return t0_; }
  /// Cycles consumed since entry (so far; excludes the pending return).
  cycles_t elapsed() const;

 private:
  cpu::Core& core_;
  cpu::Mode resume_;
  cycles_t t0_;
};

}  // namespace minova::nova
