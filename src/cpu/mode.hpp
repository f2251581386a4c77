// ARM processor modes and privilege levels (ARMv7-A, no virtualization
// extensions — the Cortex-A9 situation that forces paravirtualization).
#pragma once

#include "util/types.hpp"

namespace minova::cpu {

/// The six operating modes used by the paper (§III): USR is PL0, the rest
/// are PL1. SYS is included for completeness but unused by Mini-NOVA.
enum class Mode : u8 {
  kUsr = 0x10,
  kFiq = 0x11,
  kIrq = 0x12,
  kSvc = 0x13,
  kAbt = 0x17,
  kUnd = 0x1B,
  kSys = 0x1F,
};

enum class PrivilegeLevel : u8 { kPl0 = 0, kPl1 = 1 };

constexpr PrivilegeLevel privilege_of(Mode m) {
  return m == Mode::kUsr ? PrivilegeLevel::kPl0 : PrivilegeLevel::kPl1;
}

constexpr bool is_privileged(Mode m) {
  return privilege_of(m) == PrivilegeLevel::kPl1;
}

/// Exception kinds routed through the vector table (paper §III: interrupts
/// via IRQ/FIQ, privileged-instruction traps via UND, memory faults via ABT,
/// hypercalls via SVC).
enum class Exception : u8 {
  kReset = 0,
  kUndefined,       // UND: privileged/sensitive instruction in PL0
  kSupervisorCall,  // SVC: hypercall from a paravirtualized guest
  kPrefetchAbort,   // ABT: instruction-side MMU fault
  kDataAbort,       // ABT: data-side MMU fault
  kIrq,
  kFiq,
};

constexpr Mode mode_for_exception(Exception e) {
  switch (e) {
    case Exception::kReset:
    case Exception::kSupervisorCall: return Mode::kSvc;
    case Exception::kUndefined: return Mode::kUnd;
    case Exception::kPrefetchAbort:
    case Exception::kDataAbort: return Mode::kAbt;
    case Exception::kIrq: return Mode::kIrq;
    case Exception::kFiq: return Mode::kFiq;
  }
  return Mode::kSvc;
}

}  // namespace minova::cpu
