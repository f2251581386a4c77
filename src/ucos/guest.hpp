// Paravirtualized uC/OS-II guest for Mini-NOVA (paper §V.A).
//
// This is the "porting patch" layer: the uC/OS-II kernel itself is
// unmodified; this adapter replaces its sensitive operations with
// hypercalls — virtual timer registration, interrupt entry registration,
// the local vIRQ table, hardware-task client APIs, and UART output — which
// is exactly the patch set the paper describes (~200 LoC, 17 of the 25
// hypercalls used).
#pragma once

#include <memory>
#include <optional>

#include "nova/guest_iface.hpp"
#include "nova/kmem.hpp"
#include "ucos/app.hpp"
#include "ucos/kernel.hpp"

namespace minova::ucos {

class UcosGuest final : public nova::GuestOs {
 public:
  UcosGuest(const hwtask::TaskLibrary& library, GuestConfig cfg);
  ~UcosGuest() override;

  // nova::GuestOs
  const char* guest_name() const override { return name_.c_str(); }
  void boot(nova::GuestContext& ctx) override;
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override;
  void on_virq(nova::GuestContext& ctx, u32 irq) override;

  Kernel& os() { return *os_; }
  const workloads::ThwStats* thw_stats() const {
    return app_ ? app_->thw_stats() : nullptr;
  }
  u64 virqs_handled() const { return virqs_handled_; }

 private:
  class GuestSvc;  // workloads::Services over the paravirt port

  const hwtask::TaskLibrary& library_;
  GuestConfig cfg_;
  std::string name_;

  std::unique_ptr<cpu::CodeLayout> code_;
  std::unique_ptr<Kernel> os_;
  std::unique_ptr<App> app_;
  cpu::CodeRegion rg_irq_handler_;

  // Local vIRQ state table (the guest-side record of §V.A): completion and
  // reconfiguration events latched by the IRQ handler.
  bool hw_completion_ = false;
  bool pcap_done_seen_ = false;
  u64 virqs_handled_ = 0;
};

}  // namespace minova::ucos
