// Native uC/OS-II system — the baseline execution mode of §V.B.
//
// The same uC/OS-II kernel and workloads run directly on the platform:
// privileged mode, flat addressing (MMU off), TTC-driven tick, interrupts
// dispatched straight to the OS, and the hardware-task service as a plain
// function call (hwmgr::NativeAllocator). Manager entry/exit and PL IRQ
// entry are zero by construction; only the allocator's execution time is
// measured — exactly how the paper's "Native" column is defined.
#pragma once

#include <memory>

#include "core/platform.hpp"
#include "hwmgr/native_allocator.hpp"
#include "nova/kmem.hpp"
#include "ucos/app.hpp"
#include "ucos/kernel.hpp"

namespace minova::ucos {

class NativeSystem {
 public:
  /// The native image always runs from slab 0: `cfg.vm_index` is unused.
  NativeSystem(Platform& platform, const GuestConfig& cfg = {});
  ~NativeSystem();

  void run_for_us(double us);

  Kernel& os() { return *os_; }
  hwmgr::NativeAllocator& allocator() { return *alloc_; }
  const workloads::ThwStats* thw_stats() const { return app_->thw_stats(); }
  u64 irqs_handled() const { return irqs_handled_; }

 private:
  class NativeSvc;

  void handle_irqs();

  Platform& platform_;
  std::unique_ptr<cpu::CodeLayout> code_;
  std::unique_ptr<Kernel> os_;
  std::unique_ptr<hwmgr::NativeAllocator> alloc_;
  std::unique_ptr<App> app_;
  cpu::CodeRegion rg_irq_handler_;

  u32 granted_prr_ = 0;
  bool hw_completion_ = false;
  bool pcap_done_ = false;
  u64 irqs_handled_ = 0;
};

}  // namespace minova::ucos
