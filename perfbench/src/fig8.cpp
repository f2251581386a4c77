// fig8_4vm: the paper's Fig. 8 / Table III set-up, assembled from public
// constructors exactly as ucos::VirtualizedSystem does it (so the digest and
// the Table III samples are the ones users reproduce): one core, the legacy
// manager at priority 2, four uC/OS-II guests running GSM/ADPCM plus the T_hw
// hardware-task requester. Each guest sits behind the step-timing decorator.
#include <memory>
#include <string>

#include "common.hpp"
#include "hwmgr/manager.hpp"
#include "ucos/guest.hpp"

namespace perfbench {

using namespace minova;

namespace {

constexpr u32 kGuests = 4;
constexpr double kWarmupUs = 50'000;  // boot + first T_hw cycles
constexpr double kBlockUs = 50'000;
// The window ends at the first block boundary with this many Table III
// samples (about 4 s simulated), so p98 has ten samples beyond it on every
// seed; the cap only matters if the requester stalls, which the gate reports.
constexpr std::size_t kWindowSamples = 520;
constexpr u32 kMaxWindowBlocks = 400;

struct System {
  Platform platform;
  nova::Kernel kernel{platform};
  hwmgr::ManagerService manager{kernel};
  std::vector<ucos::UcosGuest*> guests;
  std::vector<nova::ProtectionDomain*> pds;
};

workloads::ThwStats thw_total(const System& s) {
  workloads::ThwStats t;
  for (const ucos::UcosGuest* g : s.guests) {
    const workloads::ThwStats* x = g->thw_stats();
    t.requests += x->requests;
    t.busy_retries += x->busy_retries;
    t.jobs_completed += x->jobs_completed;
    t.validation_failures += x->validation_failures;
    t.sw_fallbacks += x->sw_fallbacks;
    t.fail_status += x->fail_status;
    t.fail_length += x->fail_length;
    t.fail_content += x->fail_content;
    t.grants += x->grants;
    t.reconfigs += x->reconfigs;
    t.releases += x->releases;
  }
  return t;
}

u64 thw_failures(const workloads::ThwStats& t) {
  return t.validation_failures + t.sw_fallbacks + t.fail_status +
         t.fail_length + t.fail_content;
}

class Fig8 final : public Workload {
 public:
  const char* name() const override { return "fig8_4vm"; }

  void setup(u64 seed) override {
    sys_ = std::make_unique<System>();
    sys_->manager.install(/*priority=*/2);
    for (u32 i = 0; i < kGuests; ++i) {
      ucos::GuestConfig gc;
      gc.vm_index = i;
      gc.seed = seed * 1000 + i;
      auto g = std::make_unique<ucos::UcosGuest>(sys_->platform.task_library(), gc);
      sys_->guests.push_back(g.get());
      sys_->pds.push_back(&sys_->kernel.create_vm(
          "vm" + std::to_string(i), /*priority=*/1,
          std::make_unique<TimedGuest>(std::move(g))));
    }
    sys_->kernel.run_for_us(kWarmupUs);
  }

  void teardown() override { sys_.reset(); }

  bool window_complete(u32 blocks) const override {
    return sys_->kernel.hwmgr_latencies().total_us.count() - total_base_ >=
               kWindowSamples ||
           blocks >= kMaxWindowBlocks;
  }

  void begin_timed() override {
    auto& lat = sys_->kernel.hwmgr_latencies();
    total_base_ = lat.total_us.count();
    irq_base_ = lat.pl_irq_entry_us.count();
    thw0_ = thw_total(*sys_);
    mgr0_ = sys_->manager.stats();
  }

  Block run_block() override {
    const u64 hc0 = sys_->kernel.hypercall_count();
    const u64 t0 = Tracer::now_ns();
    traced_run_for_us(sys_->kernel, kBlockUs);
    Block b;
    b.host_s = double(Tracer::now_ns() - t0) / 1e9;
    b.sim_us = kBlockUs;
    b.ops = double(sys_->kernel.hypercall_count() - hc0);
    b.ops_host_s = b.host_s;
    return b;
  }

  void end_window() override {
    auto& k = sys_->kernel;
    const auto& lat = k.hwmgr_latencies();
    const auto& tot = lat.total_us.samples();
    window_total_.assign(tot.begin() + long(total_base_), tot.end());
    const auto& irq = lat.pl_irq_entry_us.samples();
    window_irq_.assign(irq.begin() + long(irq_base_), irq.end());

    Digest d;
    d.mix(sys_->platform.clock().now());
    d.mix(k.vm_switch_count());
    d.mix(k.vm_switch_cycles_total());
    d.mix(k.hypercall_count());
    for (const ucos::UcosGuest* g : sys_->guests) {
      const workloads::ThwStats* s = g->thw_stats();
      d.mix(s->requests);
      d.mix(s->grants);
      d.mix(s->reconfigs);
      d.mix(s->busy_retries);
      d.mix(s->jobs_completed);
      d.mix(s->releases);
      d.mix(g->virqs_handled());
    }
    for (double v : tot) d.mix_double(v);
    for (double v : irq) d.mix_double(v);
    digest_ = d.h;
  }

  u64 digest() const override { return digest_; }
  u64 pinned_digest() const override { return 0x1926952903504da6ull; }

  std::vector<double> op_latency_us() const override { return window_total_; }

  u64 attempted() const override {
    return thw_total(*sys_).requests - thw0_.requests;
  }
  u64 failed() const override {
    return thw_failures(thw_total(*sys_)) - thw_failures(thw0_);
  }

  void gate(Gate& g) override {
    const workloads::ThwStats t = thw_total(*sys_);
    g.check("fig8.thw_validation_failures_zero", t.validation_failures == 0);
    g.check("fig8.thw_fail_counts_zero",
            t.fail_status + t.fail_length + t.fail_content == 0);
    g.check("fig8.thw_no_sw_fallbacks", t.sw_fallbacks == 0);
    g.check("fig8.window_reached_sample_target",
            window_total_.size() >= kWindowSamples);
  }

  void report(Metrics& human, Metrics& layer) override {
    human["hw_total_us_p50"] = percentile(window_total_, 50);
    human["hw_total_us_p98"] = percentile(window_total_, 98);
    human["pl_irq_entry_us_p50"] = percentile(window_irq_, 50);
    human["hw_samples"] = double(window_total_.size());
    layer["pl.irq_entry_sim_us_p50"] = percentile(window_irq_, 50);

    const workloads::ThwStats t = thw_total(*sys_);
    layer["ucos.thw_requests"] = double(t.requests - thw0_.requests);
    layer["ucos.thw_busy_retries"] = double(t.busy_retries - thw0_.busy_retries);
    layer["ucos.thw_jobs"] = double(t.jobs_completed - thw0_.jobs_completed);
    report_manager(sys_->manager.stats(), mgr0_, layer);
  }

  Platform& platform() override { return sys_->platform; }
  nova::Kernel& kernel() override { return sys_->kernel; }
  nova::ProtectionDomain& probe_pd() override { return *sys_->pds[0]; }
  // The T_hw workload streams input at the start of the data section and
  // reads results back from its upper half: the whole section is touched.
  u32 probe_bytes() const override { return 256 * 1024; }

 private:
  std::unique_ptr<System> sys_;
  std::size_t total_base_ = 0, irq_base_ = 0;
  workloads::ThwStats thw0_;
  hwmgr::ManagerStats mgr0_;
  std::vector<double> window_total_, window_irq_;
  u64 digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fig8() { return std::make_unique<Fig8>(); }

}  // namespace perfbench
