// The kernel <-> guest execution interface.
//
// Guests (paravirtualized OSes and user services) are modeled as C++
// objects the kernel drives in bounded steps; traps occur at well-defined
// points exactly as in a paravirtualized system, where every sensitive
// operation is an explicit hypercall. The `GuestContext` a guest receives
// is its only window onto the platform: user-mode memory accesses through
// the current address space, the hypercall gate, and virtual time.
#pragma once

#include <functional>

#include "cpu/core.hpp"
#include "nova/hypercall.hpp"
#include "util/types.hpp"

namespace minova::nova {

class Kernel;
class ProtectionDomain;

/// Why a guest returned from `step` before exhausting its budget.
enum class StepExit : u8 {
  kBudget = 0,   // consumed the whole budget (still runnable)
  kYield,        // nothing to do until the next tick/IRQ
  kHalt,         // guest finished for good
};

/// Fatal guest exceptions — traps the guest has no handler for (unlike the
/// forwarded aborts of take_fault). With a supervisor the kernel contains
/// them to the offending VM; without one they degrade to the legacy
/// forwarding path (DESIGN.md §16).
enum class FatalKind : u8 {
  kUndefinedInsn = 0,  // UNDEF the guest did not register for
  kPrefetchAbort,      // wild jump: instruction fetch from nowhere
  kDataAbort,          // wild access with no guest abort handler
};

class GuestContext {
 public:
  GuestContext(Kernel& kernel, ProtectionDomain& pd, cpu::Core& core)
      : kernel_(kernel), pd_(pd), core_(core) {}

  /// Issue a hypercall: full SVC entry/exit cost plus handler execution.
  HypercallResult hypercall(Hypercall number, u32 r0 = 0, u32 r1 = 0,
                            u32 r2 = 0, u32 r3 = 0);

  /// User-mode memory access in the VM's address space. A fault traps to
  /// the kernel (data abort) which, per the paper's model, forwards it to
  /// the guest; the access returns failure here. For a lazily-booted VM the
  /// first guest-memory touch instead materializes the address space
  /// (charged as one abort-class kernel trap) and the access is retried —
  /// that retry is defined out of line in kernel.cpp.
  cpu::Core::MemResult read32(vaddr_t va) {
    const auto r = core_.vread32(va);
    return r.ok ? r : retry_word(va, false, 0, r);
  }
  cpu::Core::MemResult write32(vaddr_t va, u32 v) {
    const auto r = core_.vwrite32(va, v);
    return r.ok ? r : retry_word(va, true, v, r);
  }
  cpu::Core::MemResult read_block(vaddr_t va, std::span<u8> out);
  cpu::Core::MemResult write_block(vaddr_t va, std::span<const u8> in);
  /// `Core::touch_words` under the same rule, applied word by word: a
  /// faulting word gets the lazy-boot fixup and one retry, then the run
  /// goes on with the next word.
  void touch_words(vaddr_t va, u32 words, bool write);

  /// Execute guest code: fetches the region through the I-cache.
  void exec(const cpu::CodeRegion& region, double fraction = 1.0) {
    core_.exec_code(region, fraction);
  }
  void spend_insns(u64 n) { core_.spend_insns(n); }

  /// Simulated time (the guest reading the global timer via its virtual
  /// timer interface; reads are cheap and unprivileged on the A9).
  /// During a parallel compute step (see `GuestOs::next_step_is_compute`)
  /// the global clock is frozen — these return a deterministic but stale
  /// value there; budget tracking inside a step must use `core_now()`.
  double now_us() const;
  cycles_t now_cycles() const;
  /// This core's own clock — the one every charge of this context advances.
  /// Identical to `now_cycles()` in serial execution; inside a parallel
  /// compute step it is the only clock that moves.
  cycles_t core_now() const { return core_.clock().now(); }

  /// Touch the VFP unit: under lazy switching the first touch after another
  /// VM used it traps (UND) and the kernel swaps the bank contexts.
  void use_vfp();

  /// Report a faulting guest access: runs the kernel's abort-forwarding
  /// path (SIV.C) so the guest's fault handler cost is accounted.
  void take_fault(const mmu::Fault& fault);

  /// Raise a fatal trap (no guest handler exists). Returns true when a
  /// supervisor contained it — the VM is condemned and the guest MUST
  /// return StepExit::kHalt from the current step. False means no
  /// supervisor watches this VM: the trap was charged and forwarded like a
  /// recoverable abort, and the guest continues. Defined in kernel.cpp.
  bool raise_fatal(FatalKind kind);

  Kernel& kernel() { return kernel_; }
  ProtectionDomain& pd() { return pd_; }
  cpu::Core& core() { return core_; }

 private:
  /// A faulted word access `r`: after the lazy-boot fixup, the access
  /// retried once; `r` itself when no fixup applies.
  cpu::Core::MemResult retry_word(vaddr_t va, bool write, u32 v,
                                  const cpu::Core::MemResult& r);

  Kernel& kernel_;
  ProtectionDomain& pd_;
  cpu::Core& core_;
};

/// A guest OS or user service hosted in a protection domain.
class GuestOs {
 public:
  virtual ~GuestOs() = default;

  virtual const char* guest_name() const = 0;

  /// One-time initialization, called with the VM's context when the kernel
  /// first schedules it. Sensitive setup must go through hypercalls.
  virtual void boot(GuestContext& ctx) = 0;

  /// Run for at most `budget` cycles of virtual time, then return. The
  /// kernel delivers pending vIRQs via `on_virq` before each step.
  virtual StepExit step(GuestContext& ctx, cycles_t budget) = 0;

  /// Virtual IRQ injection: the vGIC forces the VM to its IRQ entry. The
  /// guest handles it (cost charged inside) and returns.
  virtual void on_virq(GuestContext& ctx, u32 irq) = 0;

  /// Parallelism hint (DESIGN.md §14): return true when the *next* `step`
  /// call will be pure computation — guest memory accesses in its own
  /// address space, `spend_insns`, `core_now` — and nothing else. No
  /// hypercalls, no `use_vfp`, no `take_fault`, no device/MMIO touches.
  /// The SMP engine may then run the step on a host worker thread against
  /// this core's private lane with the global clock frozen; the contract is
  /// assert-enforced. The default opts every guest out (fully serialized
  /// execution, the conservative baseline).
  virtual bool next_step_is_compute() const { return false; }
};

}  // namespace minova::nova
