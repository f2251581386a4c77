// Memory-side hypercall handlers: cache/TLB maintenance, guest mapping,
// page-table creation, page protection, guest privilege mode and the
// emulated privileged registers — plus the manager-facing map/unmap
// services (§IV.E stage 3), the one path that maps into another PD.
#include <algorithm>

#include "core/platform.hpp"
#include "nova/handlers.hpp"
#include "nova/kernel.hpp"

namespace minova::nova::hc {

HypercallResult cache_flush_all(KernelOps& ops, ProtectionDomain&,
                                const HypercallArgs&) {
  auto& core = ops.core();
  core.spend(core.caches().flush_all());
  return {};
}

HypercallResult cache_clean_range(KernelOps& ops, ProtectionDomain&,
                                  const HypercallArgs& args) {
  const u32 lines = args.r[2] / 32 + 1;
  ops.core().spend(std::min<u32>(lines, 16384) * 6);
  return {};
}

HypercallResult icache_invalidate(KernelOps& ops, ProtectionDomain&,
                                  const HypercallArgs&) {
  auto& core = ops.core();
  core.spend(core.caches().invalidate_icache());
  return {};
}

HypercallResult tlb_flush_all(KernelOps& ops, ProtectionDomain& caller,
                              const HypercallArgs&) {
  // TLBIASIDIS: inner-shareable — broadcast to the other cores (no-op on
  // a unicore kernel).
  ops.tlb_sync_asid(caller.vcpu().asid());
  ops.core().spend(34);
  return {};
}

HypercallResult tlb_flush_va(KernelOps& ops, ProtectionDomain&,
                             const HypercallArgs& args) {
  ops.tlb_sync_va(args.r[1]);  // TLBIMVAIS: inner-shareable broadcast
  ops.core().spend(12);
  return {};
}

// The map calls act on the caller only; r0 is ~0 or the caller's own id.
// An unknown target is an invalid argument and any other live PD is denied:
// the manager maps into clients through Kernel::svc_map_into.
HypercallResult map_insert(KernelOps& ops, ProtectionDomain& caller,
                           const HypercallArgs& args) {
  HypercallResult res;
  const PdId target_id = args.r[0] == 0xFFFF'FFFFu ? caller.id() : args.r[0];
  const vaddr_t va = args.r[1];
  if (ops.pd_by_id(target_id) == nullptr ||
      !is_aligned(va, mmu::kPageSize) || va >= kKernelVa) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  // Self-service mapping of the caller's own physical slab.
  const u32 offset = args.r[2];
  if (target_id != caller.id() || !is_aligned(offset, mmu::kPageSize) ||
      offset >= kVmPhysSize) {
    res.status = HcStatus::kDenied;
    return res;
  }
  ops.ensure_space(caller);
  caller.space().map_page(va, vm_phys_base(caller.vm_index) + offset,
                          mmu::MapAttrs{.ap = mmu::Ap::kFullAccess,
                                        .domain = kDomGuestUser,
                                        .ng = true,
                                        .xn = false});
  ops.tlb_sync_va(va);
  ops.core().spend(160);  // descriptor writes + DSB/ISB
  return res;
}

HypercallResult map_remove(KernelOps& ops, ProtectionDomain& caller,
                           const HypercallArgs& args) {
  HypercallResult res;
  const PdId target_id = args.r[0] == 0xFFFF'FFFFu ? caller.id() : args.r[0];
  const vaddr_t va = args.r[1];
  if (ops.pd_by_id(target_id) == nullptr || va >= kKernelVa) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  if (target_id != caller.id()) {
    res.status = HcStatus::kDenied;
    return res;
  }
  ops.ensure_space(caller);
  if (!caller.space().unmap_page(va)) {
    res.status = HcStatus::kNotFound;
    return res;
  }
  ops.tlb_sync_va(va);
  ops.core().spend(120);
  return res;
}

HypercallResult pt_create(KernelOps& ops, ProtectionDomain& caller,
                          const HypercallArgs& args) {
  HypercallResult res;
  ops.ensure_space(caller);
  if (!caller.space().ensure_l2(args.r[1], kDomGuestUser))
    res.status = HcStatus::kInvalidArg;
  ops.core().spend(150);  // L2 table zeroing
  return res;
}

HypercallResult mem_protect(KernelOps& ops, ProtectionDomain& caller,
                            const HypercallArgs& args) {
  HypercallResult res;
  const vaddr_t va = args.r[1];
  mmu::Ap ap = mmu::Ap::kFullAccess;
  if (args.r[2] == 1) ap = mmu::Ap::kReadOnly;
  if (args.r[2] == 2) ap = mmu::Ap::kNoAccess;
  ops.ensure_space(caller);
  if (va >= kKernelVa || !caller.space().protect_page(va, ap)) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  ops.tlb_sync_va(va);
  ops.core().spend(60);
  return res;
}

HypercallResult set_guest_mode(KernelOps& ops, ProtectionDomain& caller,
                               const HypercallArgs& args) {
  caller.guest_in_kernel = (args.r[0] != 0);
  const u32 dacr =
      caller.guest_in_kernel ? dacr_guest_kernel() : dacr_guest_user();
  caller.vcpu().set_dacr(dacr);
  // The gate restores the caller's DACR on exit; update the saved copy.
  ops.core().spend(4);
  return {};
}

HypercallResult reg_read(KernelOps& ops, ProtectionDomain& caller,
                         const HypercallArgs& args) {
  HypercallResult res;
  if (args.r[0] == kSvcHealthQuery) {
    // Supervisor health introspection rides the register-read call (the
    // 25-hypercall ABI is frozen; same pattern as the kHwQuery* sub-ops).
    // r1 selects the target PdId, kSvcHealthSelf = the caller itself.
    Supervisor* sup = ops.supervisor();
    if (sup == nullptr) {
      res.status = HcStatus::kNotSupported;
      return res;
    }
    const PdId target =
        args.r[1] == kSvcHealthSelf ? caller.id() : PdId(args.r[1]);
    const Supervisor::VmRecord* r = sup->record_for(target);
    if (r == nullptr) {
      res.status = HcStatus::kNotFound;
      return res;
    }
    res.r1 = pack_vm_health(u32(r->health), r->incarnation,
                            r->restarts_in_window, r->forwarded_faults);
    ops.core().spend(12);  // record lookup + packing
    return res;
  }
  if (args.r[1] >= caller.sysregs.size()) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  res.r1 = caller.sysregs[args.r[1]];
  return res;
}

HypercallResult reg_write(KernelOps&, ProtectionDomain& caller,
                          const HypercallArgs& args) {
  HypercallResult res;
  if (args.r[1] >= caller.sysregs.size()) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  caller.sysregs[args.r[1]] = args.r[2];
  return res;
}

}  // namespace minova::nova::hc

namespace minova::nova {

// ---- manager-facing mapping services (capability-checked) -------------------

HcStatus Kernel::svc_map_into(ProtectionDomain& caller, PdId target,
                              vaddr_t va, paddr_t pa, bool executable_never) {
  if (!caller.has_cap(kCapMapOther)) return HcStatus::kDenied;
  ProtectionDomain* pd = pd_by_id(target);
  if (pd == nullptr || !is_aligned(va, mmu::kPageSize) || va >= kKernelVa)
    return HcStatus::kInvalidArg;
  charge_service_call();
  ensure_space(*pd);
  pd->space().map_page(va, pa,
                       mmu::MapAttrs{.ap = mmu::Ap::kFullAccess,
                                     .domain = kDomDevice,
                                     .ng = true,
                                     .xn = executable_never});
  platform_.cpu().mmu().tlb_flush_va(va);
  tlb_shootdown(va);
  platform_.cpu().spend(160);
  return HcStatus::kSuccess;
}

HcStatus Kernel::svc_unmap_from(ProtectionDomain& caller, PdId target,
                                vaddr_t va) {
  if (!caller.has_cap(kCapMapOther)) return HcStatus::kDenied;
  ProtectionDomain* pd = pd_by_id(target);
  if (pd == nullptr) return HcStatus::kInvalidArg;
  charge_service_call();
  ensure_space(*pd);
  if (!pd->space().unmap_page(va)) return HcStatus::kNotFound;
  platform_.cpu().mmu().tlb_flush_va(va);
  tlb_shootdown(va);
  platform_.cpu().spend(120);
  return HcStatus::kSuccess;
}

}  // namespace minova::nova
