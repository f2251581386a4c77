// Partially Reconfigurable Region descriptors.
//
// The FPGA fabric is floorplanned at initialization into static logic plus
// a fixed set of PRRs (paper §IV.A). Which tasks fit which region is the
// task library's compatibility list (FFT cores only fit the large regions,
// `TaskLibrary::evaluation_set`). Each PRR has a register group placed on
// its own 4 KB page so Mini-NOVA can map it into exactly one client VM at a
// time (§IV.C).
#pragma once

#include <memory>

#include "hwtask/ip_core.hpp"
#include "hwtask/library.hpp"
#include "util/types.hpp"

namespace minova::pl {

/// Run-time state of one PRR inside the controller.
struct PrrState {
  hwtask::TaskId loaded_task = hwtask::kInvalidTask;
  std::unique_ptr<hwtask::IpCore> core;  // configured accelerator
  bool busy = false;           // a job is in flight
  bool reconfiguring = false;  // PCAP transfer targeting this region

  // hwMMU window: the client VM's hardware task data section. All DMA from
  // the hosted task must fall inside [base, base+size).
  paddr_t hwmmu_base = 0;
  u32 hwmmu_size = 0;
  u64 hwmmu_violations = 0;

  // Allocated PL interrupt index (0..15) or kNoIrq.
  static constexpr u32 kNoIrq = 0xFFFF'FFFFu;
  u32 irq_index = kNoIrq;

  // Job registers (programmed by the client through the register group).
  u32 ctrl = 0;
  u32 src_addr = 0;
  u32 src_len = 0;
  u32 dst_addr = 0;
  u32 dst_len = 0;  // read-only result: bytes produced
  bool done = false;
  bool error = false;
  u64 jobs_completed = 0;
};

}  // namespace minova::pl
