// Behavioral hardware-task IP cores.
//
// Each reconfigurable accelerator of the paper's evaluation (FFT and QAM
// blocks, §V.B) is modeled as an `IpCore` that really computes its function
// on bytes DMA'd from the hardware task data section, plus a latency model
// for the PL-side processing time. The PRR controller executes whichever
// core is currently "configured" into a region.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace minova::hwtask {

class IpCore {
 public:
  virtual ~IpCore() = default;

  virtual const std::string& name() const = 0;

  /// Run one job. `in` is the raw input block from the client's hardware
  /// task data section; the return value is DMA'd back. Implementations
  /// must tolerate ill-sized input by truncating to whole elements — a real
  /// accelerator does not crash on a short burst.
  virtual std::vector<u8> process(std::span<const u8> in) = 0;

  /// PL processing latency (excluding DMA) for `in_bytes` of input.
  virtual cycles_t latency_cycles(u32 in_bytes) const = 0;
};

}  // namespace minova::hwtask
