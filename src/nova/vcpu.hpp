// Virtual CPU (paper §III.A, Table I).
//
// A vCPU is the kernel data structure holding the hardware state of one
// virtual machine. Resources are split exactly as in Table I:
//   * actively switched on every VM switch: general-purpose registers, the
//     platform-specific (virtual) timer state, CP14/CP15 registers, GIC
//     masking (handled by the vGIC) and MMU state (TTBR/DACR/ASID);
//   * lazily switched: the VFP bank and the L2 cache control registers —
//     expensive to move and touched rarely, so their context transfers only
//     when a different VM actually uses them.
//
// The save area lives in kernel heap memory and every save/restore streams
// through the cache model, which is what makes VM-switch cost sensitive to
// cache pressure like the real kernel's.
#pragma once

#include "cpu/core.hpp"
#include "nova/kheap.hpp"
#include "util/types.hpp"

namespace minova::nova {

struct VtimerState {
  bool enabled = false;
  u32 period_us = 0;       // guest tick period
  cycles_t next_deadline = 0;
};

class Vcpu {
 public:
  /// Allocates the save area from the kernel heap; returns it on
  /// destruction (the heap must outlive the vCPU).
  Vcpu(KernelHeap& heap, u32 asid);
  ~Vcpu();

  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  // ---- actively switched state ----
  /// Capture the running state of `core` into this vCPU (charging the
  /// stores to the save area).
  void save_active(cpu::Core& core);
  /// Load this vCPU's state onto `core` (charging the loads), including
  /// TTBR/DACR/ASID.
  void restore_active(cpu::Core& core) const;

  // ---- lazily switched state ----
  void save_vfp(cpu::Core& core);
  void restore_vfp(cpu::Core& core) const;
  void save_l2ctrl(cpu::Core& core);
  void restore_l2ctrl(cpu::Core& core) const;

  // ---- register-level access for the kernel (hypercall ABI etc.) ----
  u32 reg(unsigned idx) const { return regs_[idx]; }
  void set_reg(unsigned idx, u32 v) { regs_[idx] = v; }

  // MMU context of this VM.
  void set_mmu_context(paddr_t ttbr, u32 dacr) {
    ttbr0_ = ttbr;
    dacr_ = dacr;
  }
  paddr_t ttbr0() const { return ttbr0_; }
  u32 dacr() const { return dacr_; }
  void set_dacr(u32 d) { dacr_ = d; }
  u32 asid() const { return asid_; }
  /// ASID generation (see nova/asid.hpp). A vCPU whose generation is older
  /// than the allocator's holds a retired tag and must be re-tagged before
  /// it runs again.
  u32 asid_gen() const { return asid_gen_; }
  void set_asid_tag(u32 asid, u32 gen) {
    asid_ = asid;
    asid_gen_ = gen;
  }

  VtimerState& vtimer() { return vtimer_; }
  const VtimerState& vtimer() const { return vtimer_; }

  paddr_t save_area() const { return save_area_; }

  /// Words moved by an active save or restore (for cost-model tests).
  static constexpr u32 kActiveWords = 16 /*r0-r15*/ + 1 /*psr*/ +
                                      6 /*cp15*/ + 3 /*vtimer*/;
  static constexpr u32 kVfpWords = cpu::VfpBank::kContextWords;
  static constexpr u32 kL2CtrlWords = 9;

 private:
  /// Charge `words` save-area words from word `first` (writes store zero).
  void touch_area(cpu::Core& core, u32 first, u32 words, bool write) const;

  KernelHeap* heap_;
  paddr_t save_area_;
  u32 asid_;
  u32 asid_gen_ = 0;

  // Mirrored architectural values (the data also "lives" in the save area;
  // the mirror avoids re-serializing on every kernel inspection).
  std::array<u32, 16> regs_{};
  paddr_t ttbr0_ = 0;
  u32 dacr_ = 0;
  VtimerState vtimer_;
  cpu::VfpBank vfp_;
};

}  // namespace minova::nova
