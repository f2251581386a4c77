#include "mem/bus.hpp"

#include "util/assert.hpp"

namespace minova::mem {

void Bus::add_ram(PhysMem* ram) {
  MINOVA_CHECK(ram != nullptr);
  rams_.push_back(ram);
}

void Bus::add_device(paddr_t base, u32 size, MmioDevice* dev) {
  MINOVA_CHECK(dev != nullptr);
  // Windows must not overlap an existing device window.
  for (const auto& w : devices_) {
    const bool disjoint =
        u64(base) + size <= w.base || u64(w.base) + w.size <= base;
    MINOVA_CHECK_MSG(disjoint, "overlapping MMIO windows");
  }
  devices_.push_back(DevWindow{base, size, dev});
}

const Bus::DevWindow* Bus::find_dev(paddr_t pa) const {
  for (const auto& w : devices_)
    if (pa >= w.base && u64(pa) < u64(w.base) + w.size) return &w;
  return nullptr;
}

bool Bus::is_device(paddr_t pa) const { return find_dev(pa) != nullptr; }

bool Bus::overlaps_device(paddr_t base, u32 len) const {
  for (const auto& w : devices_)
    if (u64(base) < u64(w.base) + w.size && u64(w.base) < u64(base) + len)
      return true;
  return false;
}

PhysMem* Bus::ram_at(paddr_t pa, u32 len) {
  for (PhysMem* ram : rams_)
    if (ram->contains(pa, len)) return ram;
  return nullptr;
}

Bus::Result Bus::read32(paddr_t pa, u32& out) {
  if (const DevWindow* w = find_dev(pa)) {
    out = w->dev->mmio_read(pa - w->base);
    return Result::kOk;
  }
  if (PhysMem* ram = ram_at(pa, 4)) {
    out = ram->read32(pa);
    return Result::kOk;
  }
  return Result::kBusError;
}

Bus::Result Bus::write32(paddr_t pa, u32 value) {
  if (const DevWindow* w = find_dev(pa)) {
    w->dev->mmio_write(pa - w->base, value);
    return Result::kOk;
  }
  if (PhysMem* ram = ram_at(pa, 4)) {
    ram->write32(pa, value);
    return Result::kOk;
  }
  return Result::kBusError;
}

}  // namespace minova::mem
