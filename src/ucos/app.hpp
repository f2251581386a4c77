// The evaluation application of §V.B, shared by the paravirtualized guest
// and the native baseline: the T_hw hardware-task requester, the GSM
// encoder and the ADPCM compressor as three uC/OS-II tasks.
#pragma once

#include <memory>

#include "cpu/code_region.hpp"
#include "hwtask/library.hpp"
#include "ucos/kernel.hpp"
#include "workloads/adpcm.hpp"
#include "workloads/gsm.hpp"
#include "workloads/thw.hpp"

namespace minova::ucos {

inline constexpr u32 kTickUs = 1000;  // uC/OS-II timer tick period

struct GuestConfig {
  u32 vm_index = 0;       // which physical slab a guest boots from
  u64 seed = 1;
  u32 thw_period_ticks = 25;  // pause between T_hw request cycles
};

/// The application's tasks on one uC/OS-II kernel. Text is placed in
/// `code` in the order T_hw, GSM, ADPCM; the GSM and ADPCM buffers sit in
/// the user region at `user`, offset per `stagger` so VMs do not alias
/// onto the same cache sets.
class App {
 public:
  App(Kernel& os, cpu::CodeLayout& code, const hwtask::TaskLibrary& library,
      const GuestConfig& cfg, vaddr_t user, u32 stagger);

  const workloads::ThwStats* thw_stats() const { return &thw_->stats(); }

 private:
  std::unique_ptr<workloads::ThwWorkload> thw_;
  std::unique_ptr<workloads::GsmWorkload> gsm_;
  std::unique_ptr<workloads::AdpcmWorkload> adpcm_;
};

}  // namespace minova::ucos
