// MMU fault reporting, mirroring the ARM Fault Status Register encodings
// Mini-NOVA's abort handler decodes (paper §III: ABT exceptions drive the
// virtualized memory-space management).
#pragma once

#include "util/types.hpp"

namespace minova::mmu {

enum class FaultType : u8 {
  kNone = 0,
  kTranslationL1,  // no L1 descriptor
  kTranslationL2,  // no L2 descriptor
  kDomain,         // DACR says NoAccess for the descriptor's domain
  kPermission,     // AP bits deny the access
  kExternalAbort,  // bus error (unmapped physical address)
  kExecuteNever,   // XN page executed
};

struct Fault {
  FaultType type = FaultType::kNone;
  vaddr_t address = 0;   // faulting VA (-> FAR)
  u32 domain = 0;
  bool write = false;
  bool instruction = false;  // prefetch abort vs data abort

  bool is_fault() const { return type != FaultType::kNone; }

  /// ARM short-descriptor FSR[3:0] encoding (subset).
  u32 fsr_status() const {
    switch (type) {
      case FaultType::kNone: return 0b0000;
      case FaultType::kTranslationL1: return 0b0101;
      case FaultType::kTranslationL2: return 0b0111;
      case FaultType::kDomain: return 0b1001;
      case FaultType::kPermission: return 0b1101;
      case FaultType::kExternalAbort: return 0b1000;
      case FaultType::kExecuteNever: return 0b1101;
    }
    return 0;
  }
};

}  // namespace minova::mmu
