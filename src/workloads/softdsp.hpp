// Software implementations of the accelerated kernels, with ARM cycle-cost
// models — the CPU-only baseline behind the paper's motivation (§I): DPR
// hardware tasks pay off because these loops are expensive on the A9.
//
// The math reuses the behavioral IP cores (bit-identical results); what
// this module adds is the *cost* of running them on the CPU: per-butterfly
// and per-symbol instruction counts plus the real memory traffic of the
// buffers, charged through a `Services` environment.
#pragma once

#include <vector>

#include "hwtask/library.hpp"
#include "workloads/services.hpp"

namespace minova::workloads {

struct SoftDspCosts {
  // VFP-assisted radix-2 butterfly on the A9: ~4 flops + twiddle load +
  // bookkeeping. The A9's VFP is not pipelined for every op; ~18 insns/bfly
  // is in line with measured CMSIS-class software FFTs.
  u32 insns_per_butterfly = 18;
  // Gray mapping + scaling per QAM symbol.
  u32 insns_per_symbol = 14;
};

/// Compute an FFT over `points` complex samples living at `buffer_va` in
/// the environment's memory, entirely in software. Returns the simulated
/// cycle cost charged. The transformed data is written back in place.
cycles_t soft_fft(Services& svc, vaddr_t buffer_va, u32 points,
                  const SoftDspCosts& costs = {});

/// Run the software equivalent of hardware task `task`: read `in_bytes` of
/// input at `in_va`, process with the task's behavioral core (bit-identical
/// to the accelerator), charge the FFT/QAM CPU cost model, write the result
/// to `out_va`. Returns the output byte count (0 on unknown task or memory
/// failure). This is the graceful-degradation path the Hardware Task
/// Manager falls back to when a bitstream download exhausts its retries.
u32 soft_task_equivalent(Services& svc, const hwtask::TaskLibrary& library,
                         hwtask::TaskId task, vaddr_t in_va, u32 in_bytes,
                         vaddr_t out_va, const SoftDspCosts& costs = {});

}  // namespace minova::workloads
