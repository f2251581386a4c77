#include "ucos/native.hpp"

#include "mem/address_map.hpp"
#include "pl/prr_controller.hpp"
#include "util/assert.hpp"

namespace minova::ucos {

using workloads::HwReqStatus;
using workloads::ReconfigStatus;

// ---- native Services port ----------------------------------------------------

class NativeSystem::NativeSvc final : public workloads::Services {
 public:
  explicit NativeSvc(NativeSystem& owner) : owner_(owner) {}

  void exec(const cpu::CodeRegion& region, double fraction) override {
    owner_.platform_.cpu().exec_code(region, fraction);
  }
  void spend_insns(u64 n) override { owner_.platform_.cpu().spend_insns(n); }
  bool read32(vaddr_t va, u32& out) override {
    const auto r = owner_.platform_.cpu().vread32(va);
    out = r.value;
    return r.ok;
  }
  bool write32(vaddr_t va, u32 v) override {
    return owner_.platform_.cpu().vwrite32(va, v).ok;
  }
  bool read_block(vaddr_t va, std::span<u8> out) override {
    return owner_.platform_.cpu().vread_block(va, out).ok;
  }
  bool write_block(vaddr_t va, std::span<const u8> in) override {
    return owner_.platform_.cpu().vwrite_block(va, in).ok;
  }
  double now_us() override { return owner_.platform_.clock().now_us(); }

  HwReqStatus hw_request(u32 task, vaddr_t, vaddr_t) override {
    owner_.pcap_done_ = false;
    const auto grant =
        owner_.alloc_->request(task, hw_data_pa(), hw_data_size());
    if (grant.status == HwReqStatus::kGranted ||
        grant.status == HwReqStatus::kGrantedReconfig)
      owner_.granted_prr_ = grant.prr;
    return grant.status;
  }
  bool hw_release(u32 task) override { return owner_.alloc_->release(task); }
  // The native allocator has no software fallback: a transfer is ready
  // or still in flight.
  ReconfigStatus hw_reconfig_status() override {
    if (owner_.pcap_done_) return ReconfigStatus::kReady;
    const auto r = owner_.platform_.cpu().vread32(mem::kDevcfgBase + 0x04);
    return r.ok && (r.value & 0b10u) != 0  // DONE bit
               ? ReconfigStatus::kReady
               : ReconfigStatus::kInFlight;
  }
  bool hw_take_completion() override {
    if (!owner_.hw_completion_) return false;
    owner_.hw_completion_ = false;
    return true;
  }

  // Flat addressing: VA == PA; the interface is the granted PRR's register
  // page, directly addressed.
  vaddr_t hw_iface_va() const override {
    return owner_.platform_.prr_controller().reg_group_pa(owner_.granted_prr_);
  }
  vaddr_t hw_data_va() const override { return hw_data_pa(); }
  paddr_t hw_data_pa() const override {
    return nova::vm_phys_base(0) + nova::kGuestHwDataVa;
  }
  u32 hw_data_size() const override { return nova::kGuestHwDataSize; }

 private:
  NativeSystem& owner_;
};

// ---- NativeSystem --------------------------------------------------------------

NativeSystem::NativeSystem(Platform& platform, const GuestConfig& cfg)
    : platform_(platform) {
  const paddr_t image = nova::vm_phys_base(0) + 0x10000;
  code_ = std::make_unique<cpu::CodeLayout>(image, 256 * kKiB);
  os_ = std::make_unique<Kernel>("ucos-native", *code_);
  alloc_ = std::make_unique<hwmgr::NativeAllocator>(platform_, *code_);
  rg_irq_handler_ = code_->place(256);
  app_ = std::make_unique<App>(*os_, *code_, platform.task_library(), cfg,
                               nova::vm_phys_base(0) + nova::kGuestUserVa,
                               /*stagger=*/0);

  // Native tick straight from the TTC; IRQs handled by the OS directly.
  const u32 interval = u32(platform_.clock().us_to_cycles(kTickUs) >> 1);
  platform_.ttc().start_interval(0, interval, /*prescale=*/0);
  platform_.gic().enable_irq(mem::kIrqTtc0_0);
  platform_.gic().enable_irq(mem::kIrqDevcfg);
}

NativeSystem::~NativeSystem() { platform_.ttc().stop(0); }

void NativeSystem::handle_irqs() {
  auto& core = platform_.cpu();
  auto& gic = platform_.gic();
  NativeSvc svc(*this);
  int guard = 0;
  while (gic.irq_asserted() && guard++ < 64) {
    core.exception_enter(cpu::Exception::kIrq);
    core.exec_code(rg_irq_handler_);
    const u32 irq = gic.acknowledge();
    core.spend(core.caches().access_device());
    if (irq == irq::kSpuriousIrq) {
      core.exception_return(cpu::Mode::kSvc);
      break;
    }
    if (irq == mem::kIrqTtc0_0) {
      os_->tick(svc);
    } else if (irq == mem::kIrqDevcfg) {
      pcap_done_ = true;
    } else {
      hw_completion_ = true;  // PL completion straight into the OS
    }
    gic.eoi(irq);
    core.spend(core.caches().access_device());
    core.exception_return(cpu::Mode::kSvc);
    platform_.pump();
  }
}

void NativeSystem::run_for_us(double us) {
  const cycles_t end =
      platform_.clock().now() + platform_.clock().us_to_cycles(us);
  NativeSvc svc(*this);
  while (platform_.clock().now() < end) {
    platform_.pump();
    handle_irqs();
    if (!os_->run_one_unit(svc)) platform_.idle_until_next_event(end);
  }
}

}  // namespace minova::ucos
