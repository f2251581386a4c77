// prr_contention: the PRR-scheduler contention rounds of bench/prr_sched.hpp
// under the sched_cache configuration (priorities, admission queue, 4-entry
// LRU bitstream cache with prefetch), scaled up. The benchmark issues the
// hardware-task hypercalls itself and drains device events between them, so
// the manager's preempt/park/resume paths, the bitstream cache, PCAP and the
// event pump carry the load. The simulated operation latency is the
// high-priority grant: request -> first Ready poll, one sample per round.
#include <algorithm>
#include <array>
#include <memory>

#include "common.hpp"
#include "hwtask/library.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace minova;

namespace {

constexpr u32 kRoundsPerBlock = 100;
constexpr u32 kWindowBlocks = 40;  // 4000 grant samples
constexpr u32 kWarmupRounds = 200;  // fills the bitstream cache

/// The contenders exist only as protection domains: every request goes
/// through the real hypercall gate from the benchmark, and the guests never
/// run after boot.
class IdleGuest final : public nova::GuestOs {
 public:
  const char* guest_name() const override { return "prr-client"; }
  void boot(nova::GuestContext&) override {}
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override {
    ctx.spend_insns(budget / 2 + 1);
    return nova::StepExit::kBudget;
  }
  void on_virq(nova::GuestContext&, u32) override {}
};

hwmgr::SchedConfig sched_cache() {
  hwmgr::SchedConfig c;
  c.priorities = true;
  c.queue_depth = 8;
  c.cache_capacity = 4;
  c.prefetch = true;
  return c;
}

struct System {
  Platform platform;
  nova::Kernel kernel{platform};
  hwmgr::ManagerService manager{kernel};
  nova::ProtectionDomain* low0 = nullptr;
  nova::ProtectionDomain* low1 = nullptr;
  nova::ProtectionDomain* high = nullptr;
};

class Prr final : public Workload {
 public:
  const char* name() const override { return "prr_contention"; }

  void setup(u64 seed) override {
    sys_ = std::make_unique<System>();
    sys_->manager.install(/*priority=*/6);
    sys_->manager.set_sched_config(sched_cache());
    auto& k = sys_->kernel;
    sys_->low0 = &k.create_vm("low0", 1, std::make_unique<IdleGuest>());
    sys_->low1 = &k.create_vm("low1", 1, std::make_unique<IdleGuest>());
    sys_->high = &k.create_vm("high", 3, std::make_unique<IdleGuest>());
    k.run_for_us(200);

    // Hot set: three of the six FFT bitstreams (large regions only), so it
    // fits the 4-entry cache; which three, and who asks for which each
    // round, comes from the seed.
    rng_ = util::Xoshiro256(seed);
    std::array<hwtask::TaskId, 6> ffts = {
        hwtask::TaskLibrary::kFft256,  hwtask::TaskLibrary::kFft512,
        hwtask::TaskLibrary::kFft1024, hwtask::TaskLibrary::kFft2048,
        hwtask::TaskLibrary::kFft4096, hwtask::TaskLibrary::kFft8192};
    for (std::size_t i = ffts.size() - 1; i > 0; --i)
      std::swap(ffts[i], ffts[rng_.next() % (i + 1)]);
    std::copy_n(ffts.begin(), 3, hot_.begin());
    for (u32 i = 0; i < kWarmupRounds; ++i) round();
  }

  void teardown() override { sys_.reset(); }

  bool window_complete(u32 blocks) const override {
    return blocks >= kWindowBlocks;
  }

  void begin_timed() override {
    mgr0_ = sys_->manager.stats();
    grants_.clear();
    calls_ = call_failures_ = grant_failures_ = 0;
    recording_ = true;
  }

  Block run_block() override {
    const cycles_t c0 = sys_->platform.clock().now();
    const u64 t0 = Tracer::now_ns();
    for (u32 i = 0; i < kRoundsPerBlock; ++i) round();
    Block b;
    b.host_s = double(Tracer::now_ns() - t0) / 1e9;
    b.sim_us = sys_->platform.clock().cycles_to_us(sys_->platform.clock().now() - c0);
    b.ops = kRoundsPerBlock;
    b.ops_host_s = b.host_s;
    return b;
  }

  void end_window() override {
    recording_ = false;
    window_grants_ = grants_;
    const hwmgr::ManagerStats& m = sys_->manager.stats();
    Digest d;
    d.mix(sys_->platform.clock().now());
    d.mix(sys_->kernel.vm_switch_count());
    d.mix(sys_->kernel.hypercall_count());
    for (u64 v : {m.requests, m.grants_no_reconfig, m.grants_with_reconfig,
                  m.busy_rejections, m.reclaims, m.releases, m.preemptions,
                  m.resumes, m.enqueued, m.wait_grants, m.cache_hits,
                  m.cache_misses, m.cache_evictions, m.cache_prefetches})
      d.mix(v);
    for (double g : grants_) d.mix_double(g);
    digest_ = d.h;
  }

  u64 digest() const override { return digest_; }
  u64 pinned_digest() const override { return 0xd3a67c4bd574309aull; }

  std::vector<double> op_latency_us() const override { return window_grants_; }

  u64 attempted() const override { return calls_; }
  u64 failed() const override { return call_failures_ + grant_failures_; }

  void gate(Gate& g) override {
    const hwmgr::ManagerStats& m = sys_->manager.stats();
    g.check("prr.hypercalls_succeed", call_failures_ == 0);
    g.check("prr.every_grant_ready", grant_failures_ == 0);
    g.check("prr.preemptions_equal_resumes", m.preemptions == m.resumes);
    g.check("prr.preemption_path_taken", m.preemptions > mgr0_.preemptions);
    g.check("prr.pcap_error_free", sys_->platform.pcap().crc_errors() +
                                           sys_->platform.pcap().transfer_errors() ==
                                       0);
  }

  void report(Metrics& human, Metrics& layer) override {
    human["hw_grant_us_p50"] = percentile(window_grants_, 50);
    human["hw_grant_us_p98"] = percentile(window_grants_, 98);
    report_manager(sys_->manager.stats(), mgr0_, layer);
  }

  Platform& platform() override { return sys_->platform; }
  nova::Kernel& kernel() override { return sys_->kernel; }
  nova::ProtectionDomain& probe_pd() override { return *sys_->high; }
  // The manager writes the §IV.C consistency record and the client's
  // hardware task streams through the data section.
  u32 probe_bytes() const override { return 256 * 1024; }

 private:
  nova::HypercallResult call(SpanName span, u32 parent,
                             nova::ProtectionDomain& pd, nova::Hypercall hc,
                             u32 r0, u32 r1 = 0, u32 r2 = 0) {
    nova::GuestContext ctx(sys_->kernel, pd, sys_->platform.cpu());
    nova::HypercallResult r;
    {
      SpanScope s(span, parent);
      r = ctx.hypercall(hc, r0, r1, r2);
    }
    ++calls_;
    call_failures_ += r.ok() ? 0 : 1;
    return r;
  }

  void pump(u32 parent) {
    SpanScope s(SpanName::kPump, parent);
    sys_->platform.pump();
  }

  // Fire every device event due in the next `ms` of simulated time.
  void drain(u32 parent, double ms = 30.0) {
    auto& clk = sys_->platform.clock();
    const cycles_t end = clk.now() + clk.ms_to_cycles(ms);
    cycles_t dl;
    while (sys_->platform.events().next_deadline(dl) && dl < end) {
      clk.advance_to(dl);
      pump(parent);
    }
  }

  void round() {
    SpanScope rs(SpanName::kRound);
    const u32 p = rs.index();
    // Who asks for which hot task this round.
    std::array<hwtask::TaskId, 3> t = hot_;
    std::swap(t[0], t[rng_.next() % 3]);
    std::swap(t[1], t[1 + rng_.next() % 2]);
    auto& s = *sys_;
    const auto request = [&](nova::ProtectionDomain& pd, hwtask::TaskId task) {
      call(SpanName::kHwRequest, p, pd, nova::Hypercall::kHwTaskRequest, task,
           nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
    };
    const auto release = [&](nova::ProtectionDomain& pd, hwtask::TaskId task) {
      call(SpanName::kHwRelease, p, pd, nova::Hypercall::kHwTaskRelease, task);
    };

    // Both large regions saturated by the low-priority owners.
    request(*s.low0, t[0]);
    drain(p);
    request(*s.low1, t[1]);
    drain(p);

    // High-priority latecomer preempts an owner through the §IV.C save path;
    // latency runs event by event from the hypercall to the first Ready poll.
    auto& clk = s.platform.clock();
    const cycles_t req_at = clk.now();
    request(*s.high, t[2]);
    bool ready = false;
    cycles_t dl;
    for (;;) {
      ready = call(SpanName::kHwQuery, p, *s.high, nova::Hypercall::kHwTaskQuery,
                   nova::kHwQueryReconfig)
                  .r1 == nova::kReconfigReady;
      if (ready || !s.platform.events().next_deadline(dl)) break;
      clk.advance_to(dl);
      pump(p);
    }
    grant_failures_ += ready ? 0 : 1;
    if (recording_) grants_.push_back(clk.cycles_to_us(clk.now() - req_at));
    drain(p);

    // Freeing the region resumes the parked victim from its saved registers.
    release(*s.high, t[2]);
    drain(p);
    release(*s.low0, t[0]);
    release(*s.low1, t[1]);
    drain(p);
  }

  std::unique_ptr<System> sys_;
  util::Xoshiro256 rng_{1};
  std::array<hwtask::TaskId, 3> hot_{};
  hwmgr::ManagerStats mgr0_;
  bool recording_ = false;
  std::vector<double> grants_, window_grants_;
  u64 calls_ = 0, call_failures_ = 0, grant_failures_ = 0;
  u64 digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_prr() { return std::make_unique<Prr>(); }

}  // namespace perfbench
