// Kernel core: construction, the run loop, VM switching, IRQ routing and
// the trap entries (hypercall gate, IRQ, guest fault, lazy VFP, service
// call). Hypercall handler bodies live in hc_mem.cpp / hc_irq.cpp /
// hc_io.cpp / hc_hwtask.cpp and reach kernel state only through KernelOps.
#include "nova/kernel.hpp"

#include <algorithm>

#include "nova/portal.hpp"
#include "nova/trap.hpp"
#include "util/assert.hpp"

namespace minova::nova {

namespace {
// Heap carve-up: the first chunk of the kernel heap window backs the
// page-table pool, the rest is the general object heap.
constexpr u32 kPtPoolBytes = 3 * kMiB;
}  // namespace

// ---- GuestContext out-of-line members --------------------------------------

HypercallResult GuestContext::hypercall(Hypercall number, u32 r0, u32 r1,
                                        u32 r2, u32 r3) {
  return kernel_.hypercall_gate(pd_, HypercallArgs{number, {r0, r1, r2, r3}});
}

double GuestContext::now_us() const { return kernel_.now_us(); }
cycles_t GuestContext::now_cycles() const {
  return kernel_.platform().clock().now();
}
void GuestContext::use_vfp() { kernel_.vfp_access(pd_); }
void GuestContext::take_fault(const mmu::Fault& fault) {
  kernel_.forward_guest_fault(pd_, fault);
}
bool GuestContext::raise_fatal(FatalKind kind) {
  return kernel_.guest_fatal(pd_, kind);
}

// Guest memory accessors: one retry after a successful lazy-boot fixup.
// For an eager VM (or any fault that is not a first touch of an
// unmaterialized space) lazy_fault_fixup declines and the fault result is
// returned unchanged.
cpu::Core::MemResult GuestContext::retry_word(vaddr_t va, bool write, u32 v,
                                              const cpu::Core::MemResult& r) {
  if (!kernel_.lazy_fault_fixup(pd_, va)) return r;
  return write ? core_.vwrite32(va, v) : core_.vread32(va);
}
cpu::Core::MemResult GuestContext::read_block(vaddr_t va, std::span<u8> out) {
  auto r = core_.vread_block(va, out);
  if (!r.ok && kernel_.lazy_fault_fixup(pd_, va))
    return core_.vread_block(va, out);
  return r;
}
cpu::Core::MemResult GuestContext::write_block(vaddr_t va,
                                               std::span<const u8> in) {
  auto r = core_.vwrite_block(va, in);
  if (!r.ok && kernel_.lazy_fault_fixup(pd_, va))
    return core_.vwrite_block(va, in);
  return r;
}

void GuestContext::touch_words(vaddr_t va, u32 words, bool write) {
  while (words > 0) {
    const auto r =
        core_.touch_words(va, words, write, cpu::Core::RunFaults::kStop);
    if (r.ok) return;
    const vaddr_t at = r.fault.address;
    (void)retry_word(at, write, 0, r);
    const u32 done = (at - va) / 4 + 1;
    va += done * 4;
    words -= done;
  }
}

// ---- KernelOps: the handler units' window onto kernel state -----------------

Platform& KernelOps::platform() { return kernel_.platform_; }
cpu::Core& KernelOps::core() { return kernel_.platform_.cpu(); }
GuestContext KernelOps::make_ctx(ProtectionDomain& pd) {
  return kernel_.make_ctx(pd);
}
ProtectionDomain* KernelOps::pd_by_id(PdId id) { return kernel_.pd_by_id(id); }
ProtectionDomain* KernelOps::current() { return kernel_.cur_core().current; }
void KernelOps::vm_switch_to(ProtectionDomain* to) { kernel_.vm_switch(to); }
void KernelOps::ensure_space(ProtectionDomain& pd) { kernel_.ensure_space(pd); }
void KernelOps::tlb_sync_va(vaddr_t va) {
  kernel_.platform_.cpu().mmu().tlb_flush_va(va);
  kernel_.tlb_shootdown(va);
}
void KernelOps::tlb_sync_asid(u32 asid) {
  kernel_.platform_.cpu().mmu().tlb_flush_asid(asid);
  kernel_.tlb_shootdown(0);
}
bool KernelOps::irq_live_on_sibling(u32 irq) {
  return kernel_.irq_live_on_sibling(irq, kernel_.active_core_);
}
void KernelOps::vtimer_armed_changed(bool was_enabled, bool now_enabled) {
  if (was_enabled == now_enabled) return;
  if (now_enabled)
    ++kernel_.vtimers_enabled_;
  else
    --kernel_.vtimers_enabled_;
}
std::vector<u8>& KernelOps::sd_image() { return kernel_.sd_image_; }
IvcChannel* KernelOps::channel(u32 id) {
  return id < kernel_.channels_.size() ? kernel_.channels_[id].get() : nullptr;
}
ProtectionDomain* KernelOps::manager_pd() { return kernel_.manager_pd_; }
HwService* KernelOps::hw_service() { return kernel_.hw_service_; }
void KernelOps::hw_mark_request_start() {
  kernel_.hw_req_t0_ = kernel_.platform_.clock().now();
}
void KernelOps::hw_mark_entry_end() {
  kernel_.hw_entry_end_ = kernel_.platform_.clock().now();
}
void KernelOps::hw_mark_exec_end() {
  kernel_.hw_exec_end_ = kernel_.platform_.clock().now();
}
void KernelOps::hw_cancel_sample() { kernel_.hw_req_t0_ = 0; }
Supervisor* KernelOps::supervisor() { return kernel_.sup_.get(); }

// ---- construction -----------------------------------------------------------

Kernel::Kernel(Platform& platform, const KernelConfig& cfg)
    : platform_(platform),
      cfg_(cfg),
      heap_(kKernelHeapBase + kPtPoolBytes, kKernelHeapSize - kPtPoolBytes),
      pt_alloc_(platform.dram(), kKernelHeapBase, kPtPoolBytes),
      space_builder_(platform.dram(), pt_alloc_),
      code_(kKernelTextBase, kKernelTextSize) {
  // Per-core contexts; clamp to the 8 CPU-interface bits of the GIC model.
  cfg_.num_cores = std::min(std::max(cfg_.num_cores, 1u), 8u);
  const cycles_t quantum = platform.clock().ms_to_cycles(cfg_.quantum_ms);
  cores_.reserve(cfg_.num_cores);
  for (u32 i = 0; i < cfg_.num_cores; ++i) cores_.emplace_back(i, quantum);
  // One private hardware lane per simulated core, plus a private clock per
  // lane for the host-parallel batch phase (DESIGN.md §14).
  platform_.configure_lanes(cfg_.num_cores);
  lane_clocks_.assign(cfg_.num_cores,
                      LaneClock{sim::Clock(platform.clock().freq_hz())});
  vfp_owner_.assign(cfg_.num_cores, kInvalidPd);
  // A round's batch holds at most one step per core, so threads beyond the
  // core count would never get work.
  cfg_.host_threads =
      std::min(std::max(cfg_.host_threads, 1u), cfg_.num_cores);
  if (cfg_.host_threads > 1)
    pool_ = std::make_unique<HostPool>(cfg_.host_threads - 1);
  // Default-off supervisor (DESIGN.md §16): without it every run-loop and
  // trap-path hook is a null-pointer test and nothing changes.
  if (cfg_.supervisor.enabled)
    sup_ = std::make_unique<Supervisor>(*this, cfg_.supervisor);
  // Debug poisoning of freed kernel objects (host-side writes only).
  heap_.attach_ram(&platform.dram());
  boot();
}

void Kernel::boot() {
  // Lay out the kernel text footprint: bytes of text per path, which give
  // the 5.4 kLOC kernel its cache behaviour (calibrated against Table III).
  rg_vector_ = code_.place(64);
  rg_hc_entry_ = code_.place(256);
  rg_hc_exit_ = code_.place(416);
  rg_dispatch_ = code_.place(192);
  rg_irq_entry_ = code_.place(256);
  rg_tick_ = code_.place(352);
  rg_vm_switch_ = code_.place(384);
  rg_inject_ = code_.place(128);
  rg_service_call_ = code_.place(160);  // manager->kernel nested calls
  rg_abt_ = code_.place(320);           // data-abort attribution + forwarding
  // One text region per portal, sized by the portal's cost class:
  // register/IRQ/cache one-liners, memory management, hardware-task path.
  for (u32 h = 0; h < kNumHypercalls; ++h) {
    u32 sz = 160;
    switch (portal_cost_class(Hypercall(h))) {
      case PortalCost::kMm:
        sz = 384;
        break;
      case PortalCost::kHw:
        sz = 224;
        break;
      case PortalCost::kSmall:
        break;
    }
    rg_handlers_[h] = code_.place(sz);
  }

  // Enable the MMU on the kernel-only space — on every lane: each
  // simulated core's private MMU boots into the kernel space.
  kernel_space_ = space_builder_.build_kernel_space();
  for (u32 i = 0; i < u32(cores_.size()); ++i) {
    auto& mmu = platform_.lane(i).mmu();
    mmu.set_ttbr0(kernel_space_->root());
    mmu.set_dacr(dacr_host_kernel());
    mmu.set_asid(0);
    mmu.set_enabled(true);
  }

  // Kernel tick: private timer, auto-reload, owned by the kernel.
  const u32 tick_load = u32(
      platform_.clock().us_to_cycles(cfg_.tick_period_us) /
      timer::PrivateTimer::kClockDivider);
  platform_.private_timer().start(tick_load, /*auto_reload=*/true);
  platform_.gic().enable_irq(mem::kIrqPrivateTimer);
  platform_.gic().enable_irq(mem::kIrqDevcfg);

  irq_owner_.fill(kInvalidPd);
  pl_irq_route_cycles_.fill(0);

  stage_bitstreams();
  log_.info("Mini-NOVA booted: %u B kernel text, quantum %.1f ms",
            code_.bytes_used(), cfg_.quantum_ms);
}

void Kernel::stage_bitstreams() {
  paddr_t next = kBitstreamBase;
  for (hwtask::TaskId id : platform_.task_library().ids()) {
    const hwtask::TaskInfo* info = platform_.task_library().find(id);
    const paddr_t pa = paddr_t(align_up(next, 64));
    MINOVA_CHECK_MSG(pa + info->bitstream_bytes <=
                         kBitstreamBase + kBitstreamSize,
                     "bitstream store exhausted");
    // The image's first word is the task header the PCAP model consumes;
    // the body is left zero-filled (content is irrelevant to behaviour).
    platform_.dram().write32(pa, id);
    bitstreams_.push_back({id, {pa, info->bitstream_bytes}});
    next = pa + info->bitstream_bytes;
  }
}

Kernel::BitstreamLoc Kernel::find_bitstream(hwtask::TaskId task) const {
  for (const auto& [id, loc] : bitstreams_)
    if (id == task) return loc;
  return {};
}

ProtectionDomain& Kernel::create_vm(std::string name, u32 priority,
                                    std::unique_ptr<GuestOs> guest) {
  // Recycle identifiers from destroyed VMs before growing (O(1) pops; the
  // fresh paths preserve the historical index/id/ASID sequences exactly).
  u32 vm_index;
  if (!free_vm_indices_.empty()) {
    vm_index = free_vm_indices_.back();
    free_vm_indices_.pop_back();
  } else {
    vm_index = next_vm_index_++;
  }
  const bool lazy = cfg_.lazy_vm_boot;
  std::unique_ptr<mmu::AddressSpace> space;
  if (!lazy) {
    MINOVA_CHECK_MSG(vm_index < kVmMaxSlots,
                     "VM physical slabs exhausted (eager boot)");
    space = space_builder_.build_vm_space(vm_index);
  }
  const PdId id = alloc_pd_slot();
  const AsidTag tag = alloc_asid();
  auto pd = std::make_unique<ProtectionDomain>(
      id, std::move(name), priority, heap_, platform_.gic(), tag.asid,
      std::move(space), kCapHwClient, /*lazy_vgic=*/lazy);
  pd->vcpu().set_asid_tag(tag.asid, tag.gen);
  // A lazy VM starts on the kernel-only tables: its first guest-memory
  // touch faults and lazy_fault_fixup installs the real space.
  pd->vcpu().set_mmu_context(
      lazy ? kernel_space_->root() : pd->space().root(), dacr_guest_kernel());
  if (vm_index < kVmMaxSlots) {
    pd->hw_data_pa = vm_phys_base(vm_index) + kGuestHwDataVa;
    pd->hw_data_size = kGuestHwDataSize;
  }
  pd->vm_index = vm_index;
  pd->attach_guest(std::move(guest));
  // Every VM owns a virtual timer interrupt line.
  pd->vgic().register_irq(kVtimerVirq);
  pds_[id] = std::move(pd);
  // Round-robin placement across cores. On a unicore kernel this is always
  // core 0.
  CoreContext& home = cores_[next_core_assign_ % u32(cores_.size())];
  next_core_assign_ = (next_core_assign_ + 1) % u32(cores_.size());
  pds_[id]->run_core = home.id;
  home.sched.enqueue(pds_[id].get());
  return *pds_[id];
}

ProtectionDomain& Kernel::create_manager(std::string name, u32 priority,
                                         HwService& service) {
  MINOVA_CHECK_MSG(manager_pd_ == nullptr, "manager already exists");
  const PdId id = alloc_pd_slot();
  auto space = space_builder_.build_manager_space();
  const AsidTag tag = alloc_asid();
  auto pd = std::make_unique<ProtectionDomain>(
      id, std::move(name), priority, heap_, platform_.gic(), tag.asid,
      std::move(space), kCapMapOther | kCapPlControl);
  pd->vcpu().set_asid_tag(tag.asid, tag.gen);
  pd->vcpu().set_mmu_context(pd->space().root(), dacr_guest_kernel());
  pds_[id] = std::move(pd);
  manager_pd_ = pds_[id].get();
  hw_service_ = &service;
  // User services wait in the suspend queue until invoked (paper §III.D).
  // The manager lives on core 0 and is pinned: its synchronous invocation
  // runs inline on the caller's core, so its queue home never matters for
  // dispatch, but stealing a service PD would be meaningless.
  manager_pd_->core_pinned = true;
  cores_[0].sched.suspend(manager_pd_);
  return *manager_pd_;
}

PdId Kernel::alloc_pd_slot() {
  if (free_pd_slots_.empty()) {
    pds_.emplace_back();
    return PdId(pds_.size() - 1);
  }
  const PdId id = free_pd_slots_.back();
  free_pd_slots_.pop_back();
  return id;
}

bool Kernel::irq_live_on_sibling(u32 irq, u32 self) const {
  for (const auto& cc : cores_) {
    if (cc.id == self || cc.current == nullptr) continue;
    if (cc.current->vgic().is_registered(irq) &&
        cc.current->vgic().is_enabled(irq))
      return true;
  }
  return false;
}

bool Kernel::destroy_vm(PdId id) {
  ProtectionDomain* pd = pd_by_id(id);
  // Only VMs are destroyable; the manager service (no guest) is not.
  if (pd == nullptr || pd->guest() == nullptr) return false;

  cores_[pd->run_core].sched.remove(pd);
  if (pd->parked) set_parked(*pd, false);
  if (pd->vcpu().vtimer().enabled) {
    MINOVA_CHECK(vtimers_enabled_ > 0);
    --vtimers_enabled_;
  }
  for (auto& cc : cores_) {
    if (cc.current != pd) continue;
    // The current VM's enabled sources are unmasked at the distributor;
    // nothing would ever mask them once the vGIC is gone. The masking rule
    // is judged from the dying VM's core, which may not be the active one.
    pd->vgic().mask_all_physical(platform_.cpu(), [&](u32 irq) {
      return irq_live_on_sibling(irq, cc.id);
    });
    // Never leave TTBR pointing at tables about to be recycled: fall back
    // to the kernel-only space until the next dispatch.
    auto& mmu = platform_.lane(cc.id).mmu();
    mmu.set_ttbr0(kernel_space_->root());
    mmu.set_asid(0);
    mmu.set_dacr(dacr_host_kernel());
    cc.current = nullptr;
  }
  for (auto& owner : irq_owner_)
    if (owner == id) owner = kInvalidPd;
  if (pcap_owner_ == id) pcap_owner_ = kInvalidPd;
  for (auto& owner : vfp_owner_)
    if (owner == id) owner = kInvalidPd;
  if (hw_service_ != nullptr) hw_service_->handle_client_destroyed(id);
  // The next VM on this slab must not read the hardware-task data section
  // (and its §IV.C record) this one left behind. Host-side teardown: the
  // scrub charges no simulated cycles (DESIGN.md §12.5).
  if (pd->hw_data_size != 0)
    platform_.dram().discard(pd->hw_data_pa, pd->hw_data_size);

  // IVC peer-death semantics: mark the dying endpoint on every channel it
  // joins and latch a hangup virq for the surviving peer. Subsequent sends
  // by the survivor get kPeerDead (hc_io.cpp); already-queued messages stay
  // drainable. The dead endpoint keeps its PdId so a supervisor restart can
  // re-bind the channel to the replacement VM (IvcChannel::rebind).
  for (auto& ch : channels_) {
    if (!ch->connects(id)) continue;
    ch->mark_peer_dead(id);
    ProtectionDomain* peer = pd_by_id(ch->peer_of(id));
    if (peer != nullptr && peer != pd && peer->vgic().is_registered(ch->virq()))
      peer->vgic().set_pending(ch->virq());
  }

  // The tag's next owner must not inherit this VM's translations — on any
  // lane: flush the dying ASID from every main TLB and micro-TLB, and
  // account a cross-core shootdown round before the tag is reissued.
  for (u32 i = 0; i < u32(cores_.size()); ++i) {
    auto& lm = platform_.lane(i).mmu();
    lm.tlb_flush_asid(pd->vcpu().asid());
    lm.utlb_flush();
  }
  tlb_shootdown(0);
  asid_alloc_.release({pd->vcpu().asid(), pd->vcpu().asid_gen()});

  free_vm_indices_.push_back(pd->vm_index);
  pds_[id].reset();  // frees save area, vGIC list, ctrl block, page tables
  free_pd_slots_.push_back(id);
  ++vms_destroyed_;
  return true;
}

AsidTag Kernel::alloc_asid() {
  bool rolled = false;
  AsidTag tag = asid_alloc_.allocate(rolled);
  if (rolled) {
    ++asid_rollovers_;
    // One full TLB flush retires every prior-generation tag at once; the
    // micro-TLBs revalidate against Tlb::generation() and die with it.
    // Charged like the no-ASID ablation's switch-time flush.
    platform_.cpu().mmu().tlb_flush_all();
    platform_.cpu().spend(40);
    // The rollover must retire the old generation on every core: the
    // broadcast shootdown flushes the remote lanes' main TLBs and the
    // completion accounting covers this path too (no-op when unicore).
    tlb_shootdown(0);
    for (auto& cc : cores_) {
      if (cc.current == nullptr) continue;
      // A core's current VM still has its retired tag loaded in CONTEXTIDR
      // and keeps inserting under it — move it into the new generation now
      // so the recycler cannot hand its number to another VM.
      bool nested = false;
      const AsidTag cur = asid_alloc_.allocate(nested);
      MINOVA_CHECK(!nested);
      cc.current->vcpu().set_asid_tag(cur.asid, cur.gen);
      platform_.lane(cc.id).mmu().set_asid(cur.asid);
    }
  }
  return tag;
}

void Kernel::ensure_asid_current(ProtectionDomain& pd) {
  if (asid_alloc_.current({pd.vcpu().asid(), pd.vcpu().asid_gen()})) return;
  const AsidTag tag = alloc_asid();
  pd.vcpu().set_asid_tag(tag.asid, tag.gen);
}

void Kernel::set_parked(ProtectionDomain& pd, bool parked) {
  if (pd.parked == parked) return;
  pd.parked = parked;
  if (parked)
    ++parked_count_;
  else
    --parked_count_;
}

// ---- SMP: oracle mutation hooks (tests only) --------------------------------

void Kernel::smp_sabotage_for_test(u32 kind) {
  if (cores_.size() < 2) return;
  switch (kind) {
    case 1: {
      // kCorePartition: a half-completed migration. A runnable PD moves to
      // a second core's run queue, but its run_core still names the first.
      for (auto& p : pds_) {
        if (p == nullptr || p->guest() == nullptr) continue;
        if (!cores_[p->run_core].sched.is_runnable(p.get())) continue;
        cores_[p->run_core].sched.take(p.get());
        cores_[(p->run_core + 1) % cores_.size()].sched.enqueue(p.get());
        return;
      }
      break;
    }
    case 2:
      // kShootdownComplete: forge an ack for an epoch never issued and
      // inflate the ack counter past what was sent.
      cores_.back().shootdown_ack_epoch = tlb_epoch_ + 1;
      cores_.back().shootdowns_acked += 3;
      break;
    case 3: {
      // kCoreExclusivity: make the same PD current on two cores.
      ProtectionDomain* victim = cur_core().current;
      if (victim == nullptr)
        for (auto& p : pds_)
          if (p != nullptr && p->guest() != nullptr) {
            victim = p.get();
            break;
          }
      if (victim != nullptr)
        cores_[(active_core_ + 1) % cores_.size()].current = victim;
      break;
    }
    default:
      break;
  }
}

// ---- lazy VM boot ------------------------------------------------------------

bool Kernel::lazy_fault_fixup(ProtectionDomain& pd, vaddr_t va) {
  if (pd.has_space() || pd.guest() == nullptr) return false;
  // Guest kernel image, user space and hardware-task data section are
  // contiguous from VA 0; anything beyond is a real fault even on first
  // touch (e.g. unmapped scratch pages).
  if (va >= kGuestHwDataVa + kGuestHwDataSize) return false;
  {
    // First-touch materialization, charged as one abort-class kernel trap;
    // table construction itself is host-side, exactly as in eager boot.
    TrapGuard trap(platform_.cpu(), trap_counters_, cpu::Exception::kDataAbort,
                   rg_vector_, TrapKind::kGuestFault);
    trap.exec(rg_abt_);
    ensure_space(pd);
  }
  c_lazy_space_faults_.inc();
  // No introspection notification here: a first touch can fire *inside* a
  // hypercall gate (a handler reading guest memory), where the live DACR is
  // legitimately the host's — trap-exit hooks must only observe states with
  // the caller's context fully restored.
  return true;
}

void Kernel::write_back_lazy_state(ProtectionDomain& pd, u32 core_id) {
  if (vfp_owner_[core_id] == pd.id()) {
    pd.vcpu().save_vfp(platform_.lane(core_id));
    vfp_owner_[core_id] = kInvalidPd;
  }
}

void Kernel::ensure_space(ProtectionDomain& pd) {
  if (pd.has_space()) return;
  MINOVA_CHECK_MSG(pd.vm_index < kVmMaxSlots,
                   "lazy VM beyond the physical slab window needs a space");
  pd.set_space(space_builder_.build_vm_space(pd.vm_index));
  // Preserve the live DACR: the guest may have dropped to user mode before
  // its first touch.
  pd.vcpu().set_mmu_context(pd.space().root(), pd.vcpu().dacr());
  for (auto& cc : cores_)
    if (cc.current == &pd)
      platform_.lane(cc.id).mmu().set_ttbr0(pd.space().root());
}

IvcChannel& Kernel::create_channel(ProtectionDomain& a, ProtectionDomain& b) {
  const u32 id = u32(channels_.size());
  channels_.push_back(
      std::make_unique<IvcChannel>(id, heap_, a.id(), b.id()));
  IvcChannel& ch = *channels_.back();
  a.vgic().register_irq(ch.virq());
  b.vgic().register_irq(ch.virq());
  return ch;
}

ProtectionDomain* Kernel::pd_by_id(PdId id) {
  return id < pds_.size() ? pds_[id].get() : nullptr;
}

// ---- guest fault forwarding --------------------------------------------------

void Kernel::guest_trap(ProtectionDomain& pd, cpu::Exception exc, u32 fsr,
                        u32 far, bool inject) {
  {
    // Vector fetch + kernel abort handler (reads FSR/FAR and attributes
    // the fault to the guest).
    TrapGuard trap(platform_.cpu(), trap_counters_, exc, rg_vector_,
                   TrapKind::kGuestFault);
    trap.exec(rg_abt_);
    // Emulated FSR/FAR pair exposed through the PD's register file so the
    // guest's service can inspect the cause (paper: "trapped in a page
    // fault exception and handled by the guest OS' interrupt service").
    pd.sysregs[6] = fsr;
    pd.sysregs[7] = far;
    if (inject) trap.exec(rg_inject_);  // forced jump to the guest handler
  }
  c_guest_faults_.inc();
  platform_.trace().emit(platform_.clock().now(), sim::TraceKind::kGuestFault,
                         fsr, pd.id());
  notify_introspection(KernelEvent::kTrapExit, TrapKind::kGuestFault);
}

void Kernel::forward_guest_fault(ProtectionDomain& pd,
                                 const mmu::Fault& fault) {
  // Compute steps must not fault (GuestOs::next_step_is_compute contract).
  MINOVA_CHECK(!in_parallel_batch_);
  if (sup_ != nullptr) {
    // A forwarded fault is progress (the guest's handler runs), so it pets
    // the watchdog — but it also feeds the degrade counter.
    sup_->pet(pd.id());
    sup_->on_forwarded_fault(pd.id());
  }
  guest_trap(pd,
             fault.instruction ? cpu::Exception::kPrefetchAbort
                               : cpu::Exception::kDataAbort,
             fault.fsr_status(), fault.address, /*inject=*/true);
}

// ---- fatal guest traps (DESIGN.md §16) --------------------------------------

bool Kernel::guest_fatal(ProtectionDomain& pd, FatalKind kind) {
  MINOVA_CHECK(!in_parallel_batch_);
  // Containment verdict first: with a supervisor watching this PD the VM is
  // condemned here and the run loop reaps it once the step returns.
  const bool contained = sup_ != nullptr && sup_->on_fatal(pd.id(), kind);
  cpu::Exception exc = cpu::Exception::kDataAbort;
  if (kind == FatalKind::kUndefinedInsn)
    exc = cpu::Exception::kUndefined;
  else if (kind == FatalKind::kPrefetchAbort)
    exc = cpu::Exception::kPrefetchAbort;
  // Synthetic FSR marking the fault fatal (no guest handler): the high half
  // tags the class, the low bits carry the FatalKind. Without a supervisor
  // the kernel has nowhere to contain the trap: it degrades to the legacy
  // forwarding path (inject into the guest's registered entry) and the
  // guest continues.
  guest_trap(pd, exc, 0xFA7A'0000u | u32(kind), 0, /*inject=*/!contained);
  return contained;
}

// ---- lazy VFP ---------------------------------------------------------------

void Kernel::vfp_access(ProtectionDomain& pd) {
  if (!cfg_.lazy_switch) return;  // active switching keeps it always current
  // Compute steps must not touch the VFP (it is lazily switched kernel
  // state, not lane-private guest state).
  MINOVA_CHECK(!in_parallel_batch_);
  PdId& owner = vfp_owner_[active_core_];
  if (owner == pd.id()) return;
  auto& core = platform_.cpu();
  {
    // UND trap: the VFP is disabled for non-owners; first touch faults.
    TrapGuard trap(core, trap_counters_, cpu::Exception::kUndefined,
                   rg_vector_, TrapKind::kVfpSwitch);
    trap.exec(rg_handlers_[u32(Hypercall::kRegWrite)]);  // shared stub
    if (ProtectionDomain* old_owner = pd_by_id(owner))
      old_owner->vcpu().save_vfp(core);
    pd.vcpu().restore_vfp(core);
    owner = pd.id();
  }
  notify_introspection(KernelEvent::kTrapExit, TrapKind::kVfpSwitch);
}

// ---- the hypercall gate ------------------------------------------------------

HypercallResult Kernel::hypercall_gate(ProtectionDomain& caller,
                                       const HypercallArgs& args) {
  // Compute steps must not hypercall (GuestOs::next_step_is_compute
  // contract): the gate touches global kernel state and the global clock.
  MINOVA_CHECK(!in_parallel_batch_);
  platform_.trace().emit(platform_.clock().now(), sim::TraceKind::kHypercall,
                         u32(args.number), caller.id());
  auto& core = platform_.cpu();
  if (args.number >= Hypercall::kCount) {
    // Unknown hypercall number: a buggy or malicious guest must not bring
    // the kernel down. Charge the trap, reject, resume the caller.
    TrapGuard trap(core, trap_counters_, cpu::Exception::kSupervisorCall,
                   rg_vector_, TrapKind::kHypercall);
    trap.exec(rg_hc_entry_);
    trap.exec(rg_hc_exit_);
    HypercallResult res;
    res.status = HcStatus::kNotSupported;
    notify_introspection(KernelEvent::kTrapExit, TrapKind::kHypercall);
    return res;
  }
  hw_req_t0_ = 0;

  HypercallResult res;
  cycles_t t0;
  {
    TrapGuard trap(core, trap_counters_, cpu::Exception::kSupervisorCall,
                   rg_vector_, TrapKind::kHypercall);
    t0 = trap.entry_time();
    trap.exec(rg_hc_entry_);
    core.mmu().set_dacr(dacr_host_kernel());
    core.spend(2);
    trap.exec(rg_dispatch_);

    // Portal resolution: one table lookup yields the handler and the
    // precomputed authorization verdict; the handler's text region is
    // indexed by the hypercall number.
    const Portal& portal = caller.portals().at(u32(args.number));
    trap.exec(rg_handlers_[u32(args.number)]);
    if (portal.denied) {
      c_portal_denied_.inc();
      res.status = HcStatus::kDenied;
    } else {
      res = portal.handler(ops_, caller, args);
    }

    trap.exec(rg_hc_exit_);
    // Reload the caller's DACR from its vCPU: handlers (set_guest_mode) may
    // have changed the guest's privilege view while we were in the kernel.
    core.mmu().set_dacr(caller.vcpu().dacr());
    core.spend(2);
  }

  // Any hypercall is a liveness signal: the guest is executing its own
  // logic, not spinning — pet the watchdog (covers IRQ-ack via
  // kIrqComplete too).
  if (sup_ != nullptr) sup_->pet(caller.id());

  if (hw_req_t0_ != 0) {
    // Table III instrumentation for the hardware-task request path.
    const auto us = [&](cycles_t c) { return platform_.clock().cycles_to_us(c); };
    hwmgr_lat_.entry_us.add(us(hw_entry_end_ - t0));
    hwmgr_lat_.exec_us.add(us(hw_exec_end_ - hw_entry_end_));
    hwmgr_lat_.exit_us.add(us(core.clock().now() - hw_exec_end_));
    hwmgr_lat_.total_us.add(us(core.clock().now() - t0));
    hw_req_t0_ = 0;
  }
  notify_introspection(KernelEvent::kTrapExit, TrapKind::kHypercall);
  return res;
}

// ---- kernel services for the manager ----------------------------------------
// (Bodies live in the handler units next to the hypercalls they mirror:
// svc_map_into/svc_unmap_from in hc_mem.cpp, svc_assign_pl_irq in
// hc_irq.cpp, svc_set_pcap_owner/svc_write_client_data in hc_hwtask.cpp.)

void Kernel::charge_service_call() {
  {
    // A manager->kernel service call is a nested hypercall: full trap cost.
    TrapGuard trap(platform_.cpu(), trap_counters_,
                   cpu::Exception::kSupervisorCall, rg_vector_,
                   TrapKind::kServiceCall);
    trap.exec(rg_service_call_);
  }
  notify_introspection(KernelEvent::kTrapExit, TrapKind::kServiceCall);
}

}  // namespace minova::nova
