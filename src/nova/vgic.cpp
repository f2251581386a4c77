#include "nova/vgic.hpp"

#include <utility>

#include "util/assert.hpp"

namespace minova::nova {

VGic::VGic(KernelHeap& heap, irq::Gic& gic, bool lazy_area)
    : gic_(gic),
      heap_(&heap),
      list_area_(lazy_area ? 0 : heap.alloc(kMaxEntries * 8, 64)) {}

VGic::~VGic() {
  if (list_area_ != 0) heap_->free(list_area_);
}

void VGic::ensure_area() const {
  if (list_area_ == 0) list_area_ = heap_->alloc(kMaxEntries * 8, 64);
}

const VirqRecord* VGic::find(u32 irq) const {
  for (const auto& r : records_)
    if (r.irq == irq && r.irq != 0) return &r;
  return nullptr;
}

VirqRecord* VGic::find(u32 irq) {
  return const_cast<VirqRecord*>(std::as_const(*this).find(irq));
}

bool VGic::register_irq(u32 irq) {
  MINOVA_CHECK(irq != 0);
  if (find(irq) != nullptr) return true;
  for (auto& r : records_) {
    if (r.irq == 0) {
      r = VirqRecord{.irq = irq, .enabled = false, .pending = false};
      return true;
    }
  }
  return false;
}

void VGic::enable(u32 irq) {
  if (VirqRecord* r = find(irq)) r->enabled = true;
}

void VGic::disable(u32 irq) {
  if (VirqRecord* r = find(irq)) r->enabled = false;
}

bool VGic::is_enabled(u32 irq) const {
  const VirqRecord* r = find(irq);
  return r != nullptr && r->enabled;
}

void VGic::set_pending(u32 irq) {
  if (VirqRecord* r = find(irq)) r->pending = true;
}

void VGic::set_pending_charged(cpu::Core& core, u32 irq) {
  ensure_area();
  // Locate the record (scan) and mark it pending (write).
  for (u32 i = 0; i < kMaxEntries; ++i) {
    if (records_[i].irq == 0) continue;
    (void)core.vread32(kernel_va(list_area_) + i * 8);
    if (records_[i].irq == irq) {
      (void)core.vwrite32(kernel_va(list_area_) + i * 8 + 4, 1);
      break;
    }
  }
  set_pending(irq);
}

bool VGic::take_pending_charged(cpu::Core& core, u32& irq_out) {
  ensure_area();
  for (u32 i = 0; i < kMaxEntries; ++i) {
    if (records_[i].irq == 0) continue;
    (void)core.vread32(kernel_va(list_area_) + i * 8);
    if (records_[i].enabled && records_[i].pending) break;
  }
  // Fetch the VM's registered IRQ entry address alongside the list.
  (void)core.vread32(kernel_va(list_area_) + kMaxEntries * 8 - 4);
  return take_pending(irq_out);
}

bool VGic::any_deliverable() const {
  for (const auto& r : records_)
    if (r.irq != 0 && r.enabled && r.pending) return true;
  return false;
}

bool VGic::take_pending(u32& irq_out) {
  for (auto& r : records_) {
    if (r.irq != 0 && r.enabled && r.pending) {
      r.pending = false;
      irq_out = r.irq;
      return true;
    }
  }
  return false;
}

void VGic::charge_lookup(cpu::Core& core) const {
  ensure_area();
  (void)core.vread32(kernel_va(list_area_));
  (void)core.vread32(kernel_va(list_area_) + 32);
}

void VGic::touch_list(cpu::Core& core) const {
  ensure_area();
  // Walk the record list in kernel memory: one word per occupied slot (the
  // state readback of Fig. 2's "values are read back to vGIC on exit").
  for (u32 i = 0; i < kMaxEntries; ++i) {
    if (records_[i].irq == 0) continue;
    (void)core.vread32(kernel_va(list_area_) + i * 8);
  }
}

void VGic::unmask_enabled_physical(cpu::Core& core) {
  touch_list(core);
  for (const auto& r : records_) {
    if (r.irq == 0 || !r.enabled || r.irq >= gic_.num_irqs()) continue;
    gic_.enable_irq(r.irq);
    core.spend(core.caches().access_device());
  }
}

u32 VGic::registered_count() const {
  u32 n = 0;
  for (const auto& r : records_)
    if (r.irq != 0) ++n;
  return n;
}

}  // namespace minova::nova
