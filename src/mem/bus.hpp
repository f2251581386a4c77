// System bus: routes physical addresses to RAM or memory-mapped devices.
//
// Devices register address windows; anything not claimed by a device and
// inside a RAM window goes to `PhysMem`. Unclaimed addresses fault, which
// the CPU layer turns into an external abort — important for the security
// tests where a guest probes unmapped space.
#pragma once

#include <string>
#include <vector>

#include "mem/phys_mem.hpp"
#include "util/types.hpp"

namespace minova::mem {

/// A memory-mapped device. Offsets passed to the hooks are relative to the
/// registered window base. Devices are word-oriented (32-bit), matching how
/// the modeled software programs them.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual u32 mmio_read(u32 offset) = 0;
  virtual void mmio_write(u32 offset, u32 value) = 0;
};

class Bus {
 public:
  /// Attach a RAM window. Multiple windows supported (DDR + OCM).
  void add_ram(PhysMem* ram);

  /// Attach a device window [base, base+size).
  void add_device(paddr_t base, u32 size, MmioDevice* dev);

  enum class Result { kOk, kBusError };

  Result read32(paddr_t pa, u32& out);
  Result write32(paddr_t pa, u32 value);

  /// Direct RAM access for DMA masters and loaders; returns nullptr when the
  /// address is not RAM-backed.
  PhysMem* ram_at(paddr_t pa, u32 len = 1);

  /// True when `pa` hits a device window (used by the cache model: device
  /// accesses are uncached).
  bool is_device(paddr_t pa) const;

  /// True when any device window overlaps [base, base + len).
  bool overlaps_device(paddr_t base, u32 len) const;

 private:
  struct DevWindow {
    paddr_t base;
    u32 size;
    MmioDevice* dev;
  };

  const DevWindow* find_dev(paddr_t pa) const;

  std::vector<PhysMem*> rams_;
  std::vector<DevWindow> devices_;
};

}  // namespace minova::mem
