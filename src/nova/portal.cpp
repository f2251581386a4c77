#include "nova/portal.hpp"

#include "nova/handlers.hpp"
#include "nova/pd.hpp"

namespace minova::nova {

namespace {
struct Spec {
  Portal::Handler fn = nullptr;
  u32 required_caps = 0;
  PortalCost cost = PortalCost::kSmall;
};

Spec spec(Hypercall h) {
  switch (h) {
    // -- (1) cache / TLB --
    case Hypercall::kCacheFlushAll: return {hc::cache_flush_all};
    case Hypercall::kCacheCleanRange: return {hc::cache_clean_range};
    case Hypercall::kIcacheInvalidate: return {hc::icache_invalidate};
    case Hypercall::kTlbFlushAll: return {hc::tlb_flush_all};
    case Hypercall::kTlbFlushVa: return {hc::tlb_flush_va};
    // -- (2) IRQ --
    case Hypercall::kIrqEnable: return {hc::irq_enable};
    case Hypercall::kIrqDisable: return {hc::irq_disable};
    case Hypercall::kIrqComplete: return {hc::irq_complete};
    case Hypercall::kIrqSetEntry: return {hc::irq_set_entry};
    // -- (3) memory management --
    case Hypercall::kMapInsert:
      return {hc::map_insert, 0, PortalCost::kMm};
    case Hypercall::kMapRemove:
      return {hc::map_remove, 0, PortalCost::kMm};
    case Hypercall::kPtCreate:
      return {hc::pt_create, 0, PortalCost::kMm};
    case Hypercall::kMemProtect:
      return {hc::mem_protect, 0, PortalCost::kMm};
    case Hypercall::kSetGuestMode: return {hc::set_guest_mode};
    // -- (4) privileged registers --
    case Hypercall::kRegRead: return {hc::reg_read};
    case Hypercall::kRegWrite: return {hc::reg_write};
    case Hypercall::kVtimerConfig: return {hc::vtimer_config};
    // -- (5) shared devices --
    case Hypercall::kUartWrite: return {hc::uart_write};
    case Hypercall::kSdTransfer: return {hc::sd_transfer};
    case Hypercall::kDmaRequest: return {hc::dma_request};
    case Hypercall::kHwTaskRequest:
      return {hc::hwtask_request, kCapHwClient, PortalCost::kHw};
    case Hypercall::kHwTaskRelease:
      return {hc::hwtask_release, kCapHwClient, PortalCost::kHw};
    case Hypercall::kHwTaskQuery:
      return {hc::hwtask_query, kCapHwClient};
    // -- (6) inter-VM communication --
    case Hypercall::kIvcSend: return {hc::ivc_send};
    case Hypercall::kIvcRecv: return {hc::ivc_recv};
    case Hypercall::kCount: break;
  }
  return {};
}
}  // namespace

PortalTable PortalTable::build(u32 caps) {
  PortalTable table;
  for (u32 h = 0; h < kNumHypercalls; ++h) {
    const Spec s = spec(Hypercall(h));
    table.portals_[h] = {s.fn, (caps & s.required_caps) != s.required_caps};
  }
  return table;
}

const PortalTable& PortalTable::for_caps(u32 caps) {
  // Denial depends only on the PdCaps bits, so eight tables cover every mask.
  constexpr u32 kAllCaps = kCapMapOther | kCapPlControl | kCapHwClient;
  static const std::array<PortalTable, kAllCaps + 1> tables = [] {
    std::array<PortalTable, kAllCaps + 1> t;
    for (u32 c = 0; c <= kAllCaps; ++c) t[c] = build(c);
    return t;
  }();
  return tables[caps & kAllCaps];
}

PortalCost portal_cost_class(Hypercall h) { return spec(h).cost; }

u32 portal_required_caps(Hypercall h) { return spec(h).required_caps; }

}  // namespace minova::nova
