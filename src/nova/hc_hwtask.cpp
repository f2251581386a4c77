// The DPR hardware-task path (§IV.E): synchronous invocation of the
// Hardware Task Manager service from a client's hypercall, the release
// path, the reconfiguration-state poll — and the manager-facing kernel
// services the handler chain relies on (PCAP ownership, client-data
// consistency records).
//
// The portal table already guarantees the caller holds kCapHwClient when a
// handler here runs; the remaining checks are service availability and
// argument validity.
#include "core/platform.hpp"
#include "nova/handlers.hpp"
#include "nova/kernel.hpp"

namespace minova::nova::hc {

HypercallResult hwtask_request(KernelOps& ops, ProtectionDomain& caller,
                               const HypercallArgs& args) {
  HypercallResult res;
  auto& plat = ops.platform();
  if (plat.fault().should_fail(sim::FaultSite::kHypercallTransient)) {
    res.status = HcStatus::kAgain;  // nothing dispatched; just reissue
    return res;
  }
  auto& core = ops.core();
  ProtectionDomain* manager = ops.manager_pd();
  HwService* service = ops.hw_service();
  if (service == nullptr || manager == nullptr) {
    res.status = HcStatus::kDenied;
    return res;
  }
  const HwTaskRequest req{
      .client = caller.id(), .task = args.r[0], .iface_va = args.r[1]};
  if (plat.task_library().find(req.task) == nullptr ||
      !is_aligned(req.iface_va, mmu::kPageSize) || req.iface_va >= kKernelVa) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  ops.hw_mark_request_start();

  // Pass the request words into the manager's mailbox (kernel alias of the
  // manager image) and wake the service.
  for (u32 w = 0; w < 4; ++w)
    (void)core.vwrite32(kernel_va(kManagerBase + kManagerMailboxOffset) +
                            w * 4,
                        args.r[w]);

  // Enter the manager's protection domain (memory space switch; §IV.E).
  ProtectionDomain* requester = &caller;
  ops.vm_switch_to(manager);
  ops.hw_mark_entry_end();

  GuestContext mctx = ops.make_ctx(*manager);
  u32 flags = 0;
  const HcStatus status = service->handle_request(mctx, req, flags);
  ops.hw_mark_exec_end();

  // The manager removes itself and the interrupted guest resumes (§IV.E).
  ops.vm_switch_to(requester);
  if (status == HcStatus::kSuccess)
    plat.trace().emit(plat.clock().now(), sim::TraceKind::kHwGrant, req.task,
                      caller.id());
  res.status = status;
  res.r1 = flags;
  // Only served requests contribute Table III samples: a Busy rejection
  // short-circuits the allocation work the paper's numbers characterize.
  if (status == HcStatus::kBusy) ops.hw_cancel_sample();
  return res;
}

HypercallResult hwtask_release(KernelOps& ops, ProtectionDomain& caller,
                               const HypercallArgs& args) {
  HypercallResult res;
  if (ops.platform().fault().should_fail(
          sim::FaultSite::kHypercallTransient)) {
    res.status = HcStatus::kAgain;
    return res;
  }
  ProtectionDomain* manager = ops.manager_pd();
  HwService* service = ops.hw_service();
  if (service == nullptr || manager == nullptr) {
    res.status = HcStatus::kDenied;
    return res;
  }
  ProtectionDomain* requester = &caller;
  ops.vm_switch_to(manager);
  GuestContext mctx = ops.make_ctx(*manager);
  res.status = service->handle_release(mctx, caller.id(), args.r[0]);
  ops.vm_switch_to(requester);
  return res;
}

HypercallResult hwtask_query(KernelOps& ops, ProtectionDomain& caller,
                             const HypercallArgs& args) {
  HypercallResult res;
  if (args.r[0] > kHwQueryQuota) {
    res.status = HcStatus::kInvalidArg;  // selector outside the defined ABI
    return res;
  }
  HwService* service = ops.hw_service();
  if (service == nullptr) {
    res.status = HcStatus::kDenied;
    return res;
  }
  // A scheduling service handles queries inside its own domain: the query
  // path can re-grant a queued request (map + IRQ route), and the switch
  // back to the caller must replay the vGIC mask protocol over it. The
  // legacy service answers in place — no switches, identical timing.
  ProtectionDomain* manager = ops.manager_pd();
  ProtectionDomain* requester = &caller;
  const bool svc_ctx =
      manager != nullptr && service->query_wants_service_ctx();
  if (svc_ctx) ops.vm_switch_to(manager);
  switch (args.r[0]) {
    case kHwQueryReconfig:
      // Reconfiguration-state poll: the manager answers per client, so a VM
      // whose transfer the manager is retrying (and which therefore no
      // longer owns the PCAP port) still learns its outcome.
      res.r1 = service->query_reconfig(caller.id());
      break;
    case kHwQuerySetPrio:
      res.status = service->set_client_priority(caller.id(), args.r[1]);
      break;
    case kHwQueryQuota:
      res.r1 = service->query_quota(caller.id());
      break;
  }
  if (svc_ctx) ops.vm_switch_to(requester);
  auto& core = ops.core();
  core.spend(core.caches().access_device());
  return res;
}

}  // namespace minova::nova::hc

namespace minova::nova {

// ---- manager-facing DPR services (capability-checked) -----------------------

HcStatus Kernel::svc_set_pcap_owner(ProtectionDomain& caller, PdId client) {
  if (!caller.has_cap(kCapPlControl)) return HcStatus::kDenied;
  ProtectionDomain* pd = pd_by_id(client);
  if (pd == nullptr) return HcStatus::kInvalidArg;
  charge_service_call();
  pcap_owner_ = client;
  pd->vgic().register_irq(mem::kIrqDevcfg);
  pd->vgic().enable(mem::kIrqDevcfg);
  return HcStatus::kSuccess;
}

HcStatus Kernel::svc_write_client_data(ProtectionDomain& caller, PdId client,
                                       u32 offset, std::span<const u32> words) {
  if (!caller.has_cap(kCapMapOther)) return HcStatus::kDenied;
  ProtectionDomain* pd = pd_by_id(client);
  if (pd == nullptr || offset + u32(words.size()) * 4 > pd->hw_data_size)
    return HcStatus::kInvalidArg;
  charge_service_call();
  auto& core = platform_.cpu();
  for (std::size_t w = 0; w < words.size(); ++w)
    (void)core.vwrite32(kernel_va(pd->hw_data_pa + offset) + u32(w) * 4,
                        words[w]);
  // Values land in physical memory for the client to read.
  for (std::size_t w = 0; w < words.size(); ++w)
    platform_.dram().write32(pd->hw_data_pa + offset + u32(w) * 4, words[w]);
  return HcStatus::kSuccess;
}

}  // namespace minova::nova
