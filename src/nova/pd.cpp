#include "nova/pd.hpp"

namespace minova::nova {

ProtectionDomain::ProtectionDomain(PdId id, std::string name, u32 priority,
                                   KernelHeap& heap, irq::Gic& gic, u32 asid,
                                   std::unique_ptr<mmu::AddressSpace> space,
                                   u32 caps, bool lazy_vgic)
    : id_(id),
      name_(std::move(name)),
      priority_(priority),
      caps_(caps),
      portals_(&PortalTable::for_caps(caps)),
      heap_(&heap),
      ctrl_pa_(heap.alloc_ctrl(kPdCtrlBytes)),
      space_(std::move(space)),
      vcpu_(heap, asid),
      vgic_(heap, gic, lazy_vgic) {}

ProtectionDomain::~ProtectionDomain() { heap_->free_ctrl(ctrl_pa_); }

}  // namespace minova::nova
