#include "ucos/guest.hpp"

#include "mem/address_map.hpp"
#include "nova/kernel.hpp"
#include "util/assert.hpp"

namespace minova::ucos {

using nova::GuestContext;
using nova::Hypercall;
using workloads::HwReqStatus;

// ---- the paravirt Services port ---------------------------------------------

class UcosGuest::GuestSvc final : public workloads::Services {
 public:
  GuestSvc(UcosGuest& owner, GuestContext& ctx) : owner_(owner), ctx_(ctx) {}

  void exec(const cpu::CodeRegion& region, double fraction) override {
    ctx_.exec(region, fraction);
  }
  void spend_insns(u64 n) override { ctx_.spend_insns(n); }
  bool read32(vaddr_t va, u32& out) override {
    const auto r = ctx_.read32(va);
    out = r.value;
    if (!r.ok) ctx_.take_fault(r.fault);  // SIV.C: page-fault acknowledgement
    return r.ok;
  }
  bool write32(vaddr_t va, u32 v) override {
    const auto r = ctx_.write32(va, v);
    if (!r.ok) ctx_.take_fault(r.fault);
    return r.ok;
  }
  bool read_block(vaddr_t va, std::span<u8> out) override {
    return ctx_.read_block(va, out).ok;
  }
  bool write_block(vaddr_t va, std::span<const u8> in) override {
    return ctx_.write_block(va, in).ok;
  }
  void use_vfp() override { ctx_.use_vfp(); }
  double now_us() override { return ctx_.now_us(); }

  HwReqStatus hw_request(u32 task, vaddr_t iface_va,
                         vaddr_t data_va) override {
    owner_.pcap_done_seen_ = false;
    const auto res =
        ctx_.hypercall(Hypercall::kHwTaskRequest, task, iface_va, data_va);
    if (!res.ok()) return HwReqStatus::kError;
    if (res.status == nova::HcStatus::kBusy) return HwReqStatus::kBusy;
    // Transient kernel-path failure: nothing was dispatched; retrying next
    // tick is exactly the Busy protocol.
    if (res.status == nova::HcStatus::kAgain) return HwReqStatus::kBusy;
    if (res.r1 == nova::kHwGrantSoftware) return HwReqStatus::kSoftwareFallback;
    return res.r1 != 0 ? HwReqStatus::kGrantedReconfig : HwReqStatus::kGranted;
  }
  bool hw_release(u32 task) override {
    // kAgain/kBusy are positive statuses; only kSuccess means released.
    return ctx_.hypercall(Hypercall::kHwTaskRelease, task).status ==
           nova::HcStatus::kSuccess;
  }
  workloads::ReconfigStatus hw_reconfig_status() override {
    // Two acknowledgement methods (§IV.E stage 6): the PCAP completion IRQ
    // latched by the handler, or explicit polling via hypercall. Only the
    // poll can observe a manager-declared fallback.
    if (owner_.pcap_done_seen_) return workloads::ReconfigStatus::kReady;
    const auto res = ctx_.hypercall(Hypercall::kHwTaskQuery, 0);
    if (!res.ok()) return workloads::ReconfigStatus::kInFlight;
    if (res.r1 == nova::kReconfigFallback)
      return workloads::ReconfigStatus::kFailed;
    return res.r1 == nova::kReconfigReady
               ? workloads::ReconfigStatus::kReady
               : workloads::ReconfigStatus::kInFlight;
  }
  bool hw_take_completion() override {
    if (!owner_.hw_completion_) return false;
    owner_.hw_completion_ = false;
    return true;
  }

  vaddr_t hw_iface_va() const override { return nova::kGuestHwIfaceVa; }
  vaddr_t hw_data_va() const override { return nova::kGuestHwDataVa; }
  paddr_t hw_data_pa() const override {
    return nova::vm_phys_base(owner_.cfg_.vm_index) + nova::kGuestHwDataVa;
  }
  u32 hw_data_size() const override { return nova::kGuestHwDataSize; }

 private:
  UcosGuest& owner_;
  GuestContext& ctx_;
};

// ---- UcosGuest ---------------------------------------------------------------

UcosGuest::UcosGuest(const hwtask::TaskLibrary& library, GuestConfig cfg)
    : library_(library), cfg_(std::move(cfg)) {
  name_ = "ucos-vm" + std::to_string(cfg_.vm_index);
}

UcosGuest::~UcosGuest() = default;

void UcosGuest::boot(GuestContext& ctx) {
  // Guest image text lives in the VM's own physical slab. Per-VM stagger
  // keeps images from aliasing onto identical L2 sets (real load addresses
  // differ between builds; a 64 KB-aligned layout for every VM would be an
  // artificial worst case for the set-associative caches).
  const paddr_t text_base =
      nova::vm_phys_base(cfg_.vm_index) + 0x10000 + cfg_.vm_index * 0x6440;
  code_ = std::make_unique<cpu::CodeLayout>(text_base, 256 * kKiB);
  os_ = std::make_unique<Kernel>(name_, *code_);
  rg_irq_handler_ = code_->place(256);

  // The porting patch (§V.A): the de-privileged boot sequence performs its
  // sensitive setup through hypercalls — privileged system registers,
  // cache/TLB initialization, guest privilege level, IRQ entry, the virtual
  // timer registration, and a boot banner on the supervised UART.
  MINOVA_CHECK(ctx.hypercall(Hypercall::kRegWrite, 0, 0, 0xC5A9'0001u).ok());
  MINOVA_CHECK(ctx.hypercall(Hypercall::kRegWrite, 0, 1, cfg_.vm_index).ok());
  MINOVA_CHECK(ctx.hypercall(Hypercall::kCacheFlushAll).ok());
  MINOVA_CHECK(ctx.hypercall(Hypercall::kTlbFlushAll).ok());
  MINOVA_CHECK(ctx.hypercall(Hypercall::kSetGuestMode, 1).ok());
  MINOVA_CHECK(ctx.hypercall(Hypercall::kIrqSetEntry, 0, 0x8000).ok());
  MINOVA_CHECK(ctx.hypercall(Hypercall::kVtimerConfig, 0, kTickUs).ok());
  MINOVA_CHECK(ctx.hypercall(Hypercall::kIrqEnable, nova::kVtimerVirq).ok());
  for (char c : std::string(name_ + " up\n"))
    (void)ctx.hypercall(Hypercall::kUartWrite, 0, u32(c));

  // Workload tasks. Buffers sit in the guest-user region; code in the
  // guest-kernel image.
  app_ = std::make_unique<App>(*os_, *code_, library_, cfg_,
                               nova::kGuestUserVa, cfg_.vm_index);
}

nova::StepExit UcosGuest::step(GuestContext& ctx, cycles_t budget) {
  GuestSvc svc(*this, ctx);
  const cycles_t start = ctx.now_cycles();
  while (ctx.now_cycles() - start < budget) {
    if (!os_->run_one_unit(svc)) return nova::StepExit::kYield;
  }
  return nova::StepExit::kBudget;
}

void UcosGuest::on_virq(GuestContext& ctx, u32 irq) {
  GuestSvc svc(*this, ctx);
  ctx.exec(rg_irq_handler_);
  ++virqs_handled_;
  if (irq == nova::kVtimerVirq) {
    os_->tick(svc);
  } else if (irq == mem::kIrqDevcfg) {
    pcap_done_seen_ = true;
  } else {
    // PL interrupt: hardware-task completion.
    hw_completion_ = true;
  }
  (void)ctx.hypercall(Hypercall::kIrqComplete, irq);
}

}  // namespace minova::ucos
