#include "nova/vcpu.hpp"

namespace minova::nova {

Vcpu::Vcpu(KernelHeap& heap, u32 asid)
    : heap_(&heap),
      save_area_(heap.alloc((kActiveWords + kVfpWords + kL2CtrlWords) * 4, 64)),
      asid_(asid) {}

Vcpu::~Vcpu() { heap_->free(save_area_); }

void Vcpu::touch_area(cpu::Core& core, u32 first, u32 words,
                      bool write) const {
  // Stream the save area through the kernel's global mapping. A word that
  // faults (the privileged-only mapping seen from a user-mode core) is
  // charged like any other and skipped; the values are mirrored in members.
  (void)core.touch_words(kernel_va(save_area_) + first * 4, words, write,
                         cpu::Core::RunFaults::kSkip);
}

void Vcpu::save_active(cpu::Core& core) {
  for (unsigned i = 0; i < 16; ++i)
    regs_[i] = core.regs().get(cpu::Mode::kUsr, i);
  // TTBR/DACR/ASID are NOT captured from the live MMU: a guest cannot
  // change them (privilege flips go through kSetGuestMode, which updates
  // this mirror directly), and a VM switch can happen mid-hypercall while
  // the *host* DACR is loaded — snapshotting CP15 there would leak the
  // kernel's all-domains DACR into a guest-user vCPU (Table II violation;
  // found by the fuzzer's dacr-mode oracle). The mirrors stay authoritative;
  // the save still streams the full frame through the cache model below.
  touch_area(core, 0, kActiveWords, /*write=*/true);
  core.spend(kActiveWords / 2);  // STM pipeline overhead
}

void Vcpu::restore_active(cpu::Core& core) const {
  touch_area(core, 0, kActiveWords, /*write=*/false);
  for (unsigned i = 0; i < 16; ++i)
    core.regs().set(cpu::Mode::kUsr, i, regs_[i]);
  // CPSR of the guest is re-applied by the kernel when it drops to USR; the
  // MMU context switches immediately (TTBR + ASID + DACR: 3 CP15 writes).
  core.mmu().set_ttbr0(ttbr0_);
  core.mmu().set_asid(asid_);
  core.mmu().set_dacr(dacr_);
  core.spend(kActiveWords / 2 + 9);  // LDM overhead + CP15 writes + ISB
}

void Vcpu::save_vfp(cpu::Core& core) {
  vfp_ = core.vfp();
  // The VFP bank is larger than the active frame; charge it separately.
  touch_area(core, kActiveWords, kVfpWords, /*write=*/true);
  core.spend(kVfpWords / 2);
}

void Vcpu::restore_vfp(cpu::Core& core) const {
  touch_area(core, kActiveWords, kVfpWords, /*write=*/false);
  core.vfp() = vfp_;
  core.spend(kVfpWords / 2);
}

void Vcpu::save_l2ctrl(cpu::Core& core) {
  touch_area(core, kActiveWords + kVfpWords, kL2CtrlWords, /*write=*/true);
  core.spend(kL2CtrlWords);
}

void Vcpu::restore_l2ctrl(cpu::Core& core) const {
  touch_area(core, kActiveWords + kVfpWords, kL2CtrlWords, /*write=*/false);
  core.spend(kL2CtrlWords);
}

}  // namespace minova::nova
