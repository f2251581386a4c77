#include "core/platform.hpp"

namespace minova {

Platform::Platform(const PlatformConfig& cfg)
    : cfg_(cfg),
      dram_(mem::kDdrBase, mem::kDdrSize),
      ocm_(mem::kOcmBase, mem::kOcmSize),
      gic_(mem::kNumIrqs),
      cpu_(clock_, dram_, bus_),
      ptimer_(clock_, events_, gic_),
      ttc_(clock_, events_, gic_),
      library_(hwtask::TaskLibrary::evaluation_set(cfg.large_prrs,
                                                   cfg.small_prrs)),
      fault_(clock_, stats_, cfg.fault),
      prrctl_(clock_, events_, gic_, bus_, library_,
              cfg.large_prrs + cfg.small_prrs),
      pcap_(clock_, events_, gic_, prrctl_),
      uart0_(clock_, events_, gic_) {
  lanes_.push_back(&cpu_);
  bus_.add_ram(&dram_);
  bus_.add_ram(&ocm_);
  bus_.add_device(mem::kPrrCtrlBase,
                  (mem::kPrrMaxRegions + 1) * mem::kPrrRegGroupStride,
                  &prrctl_);
  bus_.add_device(mem::kDevcfgBase, mem::kDevcfgSize, &pcap_);
  bus_.add_device(mem::kUart0Base, mem::kUartSize, &uart0_);
  gic_.set_irq_line([this](bool asserted) { cpu().set_irq_line(asserted); });
  prrctl_.attach_fault_injector(&fault_);
  pcap_.attach_fault_injector(&fault_);
}

void Platform::pump() {
  events_.run_due(clock_.now());
  cpu().set_irq_line(gic_.irq_asserted());
}

void Platform::configure_lanes(u32 n) {
  while (num_lanes() < n) {
    extra_lanes_.push_back(
        std::make_unique<cpu::Core>(clock_, dram_, bus_));
    lanes_.push_back(extra_lanes_.back().get());
  }
}

bool Platform::idle_until_next_event(cycles_t limit) {
  cycles_t deadline = 0;
  if (!events_.next_deadline(deadline) || deadline > limit) {
    clock_.advance_to(limit);
    pump();
    return false;
  }
  clock_.advance_to(deadline);
  pump();
  return true;
}

}  // namespace minova
