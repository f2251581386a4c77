// smp_compute: 4 simulated cores, 8 StreamComputeGuests on the host-parallel
// round engine with up to 4 host threads (3 pool workers plus the caller,
// capped at the host's CPU count). The only workload where the kernel's
// HostPool, lanes and batch commit carry the load. Every simulated number is
// thread-count invariant, so the window digest must equal a host_threads=1
// reference run of the same seed.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "nova/inspector.hpp"
#include "workloads/compute.hpp"

namespace perfbench {

using namespace minova;

namespace {

constexpr u32 kCores = 4;
constexpr u32 kGuests = 8;
constexpr double kWarmupUs = 5'000;
constexpr double kBlockUs = 25'000;
constexpr u32 kWindowBlocks = 10;  // 250 ms simulated

u32 default_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct System {
  explicit System(u32 threads) : kernel(platform, config(threads)) {}
  static nova::KernelConfig config(u32 threads) {
    nova::KernelConfig cfg;
    cfg.num_cores = kCores;
    cfg.host_threads = threads;
    cfg.quantum_ms = 1.0;
    cfg.smp_window_us = 200.0;  // fat batch items amortize the pool hand-off
    return cfg;
  }
  Platform platform;
  nova::Kernel kernel;
  std::vector<workloads::StreamComputeGuest*> guests;
  std::vector<nova::ProtectionDomain*> pds;
  // One sink per guest: steps run on host worker threads.
  std::vector<std::unique_ptr<TimedGuest::Sink>> sinks;
  std::vector<TimedGuest*> timed;
};

std::unique_ptr<System> build(u64 seed, u32 threads) {
  auto s = std::make_unique<System>(threads);
  for (u32 i = 0; i < kGuests; ++i) {
    workloads::StreamComputeConfig gc;
    gc.seed = seed * 100 + i;
    auto g = std::make_unique<workloads::StreamComputeGuest>(gc);
    s->guests.push_back(g.get());
    s->sinks.push_back(std::make_unique<TimedGuest::Sink>());
    auto tg = std::make_unique<TimedGuest>(
        std::move(g), TimedGuest::Record::kWaits, s->sinks.back().get());
    s->timed.push_back(tg.get());
    s->pds.push_back(
        &s->kernel.create_vm("mt" + std::to_string(i), 1, std::move(tg)));
  }
  s->kernel.run_for_us(kWarmupUs);
  return s;
}

u64 digest_of(System& s) {
  nova::KernelInspector insp(s.kernel);
  Digest d;
  d.mix(s.platform.clock().now());
  d.mix(insp.vm_switches());
  d.mix(insp.hypercalls());
  for (u32 c = 0; c < insp.num_cores(); ++c) {
    const auto cv = insp.core(c);
    d.mix(cv.local_now());
    d.mix(cv.ipis_sent());
    d.mix(cv.steals());
    d.mix(cv.vm_switches());
  }
  for (const auto* g : s.guests) {
    d.mix(g->checksum());
    d.mix(g->steps());
  }
  for (const auto& sink : s.sinks)
    for (cycles_t w : sink->v) d.mix(w);
  return d.h;
}

u64 total_steps(const System& s) {
  u64 n = 0;
  for (const TimedGuest* t : s.timed) n += t->steps();
  return n;
}

class Smp final : public Workload {
 public:
  const char* name() const override { return "smp_compute"; }

  void setup(u64 seed) override {
    seed_ = seed;
    sys_ = build(seed, threads_);
  }

  void teardown() override { sys_.reset(); }

  bool window_complete(u32 blocks) const override {
    return blocks >= kWindowBlocks;
  }

  void begin_timed() override {
    blocks_ = 0;
    window_host_s_ = 0;
    steps0_ = total_steps(*sys_);
    for (auto& sink : sys_->sinks) sink->v.clear();
  }

  Block run_block() override {
    const u64 s0 = total_steps(*sys_);
    const u64 t0 = Tracer::now_ns();
    traced_run_for_us(sys_->kernel, kBlockUs);
    Block b;
    b.host_s = double(Tracer::now_ns() - t0) / 1e9;
    if (blocks_++ < kWindowBlocks) window_host_s_ += b.host_s;
    b.sim_us = kBlockUs;
    b.ops = double(total_steps(*sys_) - s0);
    b.ops_host_s = b.host_s;
    return b;
  }

  void end_window() override {
    digest_ = digest_of(*sys_);
    waits_us_.clear();
    const auto& clk = sys_->platform.clock();
    for (auto& sink : sys_->sinks) {
      for (cycles_t w : sink->v) waits_us_.push_back(clk.cycles_to_us(w));
      sink->on = false;
    }
  }

  u64 digest() const override { return digest_; }
  u64 pinned_digest() const override { return 0x8f9a64277047e01dull; }

  std::vector<double> op_latency_us() const override { return waits_us_; }

  u64 attempted() const override { return total_steps(*sys_) - steps0_; }
  u64 failed() const override { return 0; }

  void gate(Gate& g) override {
    // Same seed, same chunking, one host thread: the window digest must match.
    // Its host time over the window also gives the speed-up of the
    // multi-threaded run over one thread.
    auto ref = build(seed_, 1);
    for (auto& sink : ref->sinks) sink->v.clear();
    const u64 t0 = Tracer::now_ns();
    for (u32 i = 0; i < kWindowBlocks; ++i) ref->kernel.run_for_us(kBlockUs);
    ref_host_s_ = double(Tracer::now_ns() - t0) / 1e9;
    g.check("smp.digest_equals_host_threads_1", digest_of(*ref) == digest_);
  }

  void report(Metrics& human, Metrics& layer) override {
    human["run_queue_wait_us_p50"] = percentile(waits_us_, 50);
    human["run_queue_wait_us_p98"] = percentile(waits_us_, 98);
    human["host_threads"] = threads_;
    human["window_speedup_vs_1_thread"] = ref_host_s_ / window_host_s_;
    layer["nova.pool.speedup_vs_1_thread"] = ref_host_s_ / window_host_s_;
  }

  Platform& platform() override { return sys_->platform; }
  nova::Kernel& kernel() override { return sys_->kernel; }
  nova::ProtectionDomain& probe_pd() override { return *sys_->pds[0]; }
  u32 probe_bytes() const override {
    return workloads::StreamComputeConfig{}.working_set_bytes;
  }
  u32 host_threads() const override { return threads_; }

 private:
  u32 threads_ = default_threads();
  u64 seed_ = 0;
  std::unique_ptr<System> sys_;
  u64 steps0_ = 0;
  u32 blocks_ = 0;
  double window_host_s_ = 0, ref_host_s_ = 0;
  std::vector<double> waits_us_;
  u64 digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_smp() { return std::make_unique<Smp>(); }

}  // namespace perfbench
