// Architectural register state: general-purpose registers with per-mode
// banking, PSRs, and the VFP register bank.
//
// The simulator does not interpret machine code, but the *contents* of the
// register file still matter: Mini-NOVA's vCPU save/restore writes this
// state into kernel memory through the cache model, and hypercall arguments
// travel in r0-r3 exactly as on hardware.
#pragma once

#include <array>

#include "cpu/mode.hpp"
#include "util/types.hpp"

namespace minova::cpu {

/// Program status register. Only the fields the kernel manipulates are
/// modeled: mode, IRQ/FIQ mask bits and the condition flags (as a lump).
struct Psr {
  Mode mode = Mode::kSvc;
  bool irq_masked = true;  // I bit
  bool fiq_masked = true;  // F bit
  u32 flags = 0;           // NZCV + ITSTATE, opaque

  u32 encode() const {
    return u32(mode) | (irq_masked ? 1u << 7 : 0) | (fiq_masked ? 1u << 6 : 0) |
           (flags & 0xF800'0000u);
  }
  static Psr decode(u32 v) {
    Psr p;
    p.mode = Mode(v & 0x1Fu);
    p.irq_masked = bit(v, 7);
    p.fiq_masked = bit(v, 6);
    p.flags = v & 0xF800'0000u;
    return p;
  }
};

/// General-purpose register file with mode banking. r0-r7 are shared;
/// r8-r12 banked for FIQ; r13 (SP) and r14 (LR) banked for every exception
/// mode; r15 is the PC.
class RegisterFile {
 public:
  RegisterFile() {
    shared_.fill(0);
    fiq_high_.fill(0);
    for (auto& b : banked_) b = {0, 0};
  }

  u32 get(Mode mode, unsigned index) const;
  void set(Mode mode, unsigned index, u32 value);

  u32 pc() const { return pc_; }

  /// Convenience accessors for the current-mode SP/LR.
  u32 sp(Mode mode) const { return get(mode, 13); }
  u32 lr(Mode mode) const { return get(mode, 14); }
  void set_sp(Mode mode, u32 v) { set(mode, 13, v); }
  void set_lr(Mode mode, u32 v) { set(mode, 14, v); }

  /// Number of 32-bit words a full save/restore of the user-visible state
  /// moves (r0-r14 + pc + psr): used by the vCPU switch cost model.
  static constexpr u32 kContextWords = 17;

 private:
  static unsigned bank_of(Mode mode);

  std::array<u32, 13> shared_;          // r0-r12 (usr view)
  std::array<u32, 5> fiq_high_;         // r8-r12 fiq bank
  struct SpLr { u32 sp, lr; };
  std::array<SpLr, 7> banked_;          // per-mode r13/r14
  u32 pc_ = 0;
};

/// VFPv3 register bank (32 double registers) + FPSCR/FPEXC. The enable bit
/// is the hook for Mini-NOVA's lazy switching: access with the unit
/// disabled traps to the kernel (paper Table I).
struct VfpBank {
  std::array<u64, 32> d{};
  u32 fpscr = 0;
  bool enabled = false;

  static constexpr u32 kContextWords = 32 * 2 + 2;  // d0-d31 + fpscr + fpexc
};

}  // namespace minova::cpu
