#include "workloads/compute.hpp"

#include "nova/kernel.hpp"
#include "util/fnv.hpp"

namespace minova::workloads {

using nova::GuestContext;
using nova::StepExit;

// The checksum starts at the FNV-1a offset basis, but its multiplier is not
// the FNV prime (0x100'0000'01B3): every pinned compute digest was recorded
// with this one.
constexpr u64 kMul = 0x1000'0000'01B3ull;
constexpr u32 kInsnsPerAccess = 64;  // modeled ALU work between accesses

StreamComputeGuest::StreamComputeGuest(StreamComputeConfig cfg)
    : cfg_(cfg), checksum_(util::kFnvOffset ^ cfg.seed) {
  if (cfg_.working_set_bytes < 64) cfg_.working_set_bytes = 64;
  if (cfg_.working_set_bytes > nova::kGuestHwDataSize)
    cfg_.working_set_bytes = nova::kGuestHwDataSize;
}

void StreamComputeGuest::boot(GuestContext& ctx) {
  // Warm the first line of the working set so a lazily-booted VM
  // materializes its space in this (serial) step, then hand the rest of
  // the VM's life to the compute path.
  (void)ctx.write32(nova::kGuestHwDataVa, u32(cfg_.seed));
  booted_ = true;
}

StepExit StreamComputeGuest::step(GuestContext& ctx, cycles_t budget) {
  // Budget tracking must use the core's own clock: during a parallel batch
  // the global clock is frozen (guest_iface.hpp).
  const cycles_t t_end = ctx.core_now() + budget;
  const u64 words = cfg_.working_set_bytes / 4;
  while (ctx.core_now() < t_end) {
    const vaddr_t va = nova::kGuestHwDataVa + vaddr_t((pos_ % words) * 4);
    if ((pos_ & 3) == 0) {
      (void)ctx.write32(va, u32(checksum_ >> 16));
    } else {
      const auto r = ctx.read32(va);
      if (r.ok) checksum_ = (checksum_ ^ r.value) * kMul;
    }
    checksum_ = (checksum_ ^ pos_) * kMul;
    pos_ += 7;  // coprime with the power-of-two working set: full coverage
    ctx.spend_insns(kInsnsPerAccess);
  }
  ++steps_;
  return StepExit::kBudget;
}

}  // namespace minova::workloads
