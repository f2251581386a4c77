// density_churn: 1024 lazily-booted compute VMs on a 50 µs quantum, with
// create/destroy churn between rotations. The guests never touch memory, so
// nearly all host time is the kernel scheduler, vm_switch, KernelHeap and
// ASID paths; the churn phase is the write side of the same layers.
//
// One block = churn (destroy a seeded sample of live VMs, create as many
// new ones) followed by one full rotation, so every new VM is dispatched
// inside the block that created it. The simulated operation latency is a
// new VM's start delay: creation to its first step.
#include <array>
#include <cstdio>
#include <memory>
#include <string>

#include "common.hpp"
#include "nova/kmem.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace minova;

namespace {

constexpr u32 kVms = 1024;
constexpr u32 kChurn = 128;  // create+destroy pairs per block
constexpr double kQuantumMs = 0.05;
constexpr double kRotationUs = kVms * kQuantumMs * 1000.0;
constexpr u32 kWindowBlocks = 20;

/// Pure compute guest: burns a per-VM share of its budget, never touches
/// guest memory (VMs beyond the physical slab window must stay memoryless)
/// and never halts.
class DensityGuest final : public nova::GuestOs {
 public:
  explicit DensityGuest(u32 eighths) : eighths_(eighths) {}
  const char* guest_name() const override { return "density"; }
  void boot(nova::GuestContext&) override {}
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override {
    ctx.spend_insns(budget * eighths_ / 8 + 1);
    return nova::StepExit::kBudget;
  }
  void on_virq(nova::GuestContext&, u32) override {}

 private:
  u32 eighths_;
};

struct System {
  static nova::KernelConfig config() {
    nova::KernelConfig cfg;
    cfg.lazy_vm_boot = true;  // creation must be O(1) and slab-unbounded
    cfg.quantum_ms = kQuantumMs;
    cfg.tick_period_us = 50;
    return cfg;
  }
  Platform platform;
  nova::Kernel kernel{platform, config()};
  std::vector<nova::PdId> live;
};

class Density final : public Workload {
 public:
  const char* name() const override { return "density_churn"; }

  void setup(u64 seed) override {
    sys_ = std::make_unique<System>();
    rng_ = util::Xoshiro256(seed);
    next_name_ = 0;
    const auto& heap = sys_->kernel.heap();
    heap_empty_ = {heap.bytes_live(), heap.live_blocks()};
    for (u32 i = 0; i < kVms; ++i) create(nullptr, Tracer::kNoParent);
    heap_per_vm_ = double(heap.bytes_live() - heap_empty_[0]) / kVms;
    sys_->kernel.run_for_us(kRotationUs);  // first dispatch of every VM
  }

  void teardown() override { sys_.reset(); }

  bool window_complete(u32 blocks) const override {
    return blocks >= kWindowBlocks;
  }

  void begin_timed() override {
    sink_ = TimedGuest::Sink{};
    ops_ = destroy_failures_ = 0;
  }

  Block run_block() override {
    Block b;
    {
      const u64 t0 = Tracer::now_ns();
      SpanScope round(SpanName::kRound);
      for (u32 i = 0; i < kChurn; ++i) {
        const std::size_t at = rng_.next() % sys_->live.size();
        const nova::PdId victim = sys_->live[at];
        sys_->live[at] = sys_->live.back();
        sys_->live.pop_back();
        {
          SpanScope s(SpanName::kDestroyVm, round.index());
          destroy_failures_ += sys_->kernel.destroy_vm(victim) ? 0 : 1;
        }
        create(&sink_, round.index());
      }
      b.ops = kChurn;
      b.ops_host_s = double(Tracer::now_ns() - t0) / 1e9;
    }
    ops_ += 2 * kChurn;
    const u64 t0 = Tracer::now_ns();
    traced_run_for_us(sys_->kernel, kRotationUs);
    b.host_s = b.ops_host_s + double(Tracer::now_ns() - t0) / 1e9;
    b.sim_us = kRotationUs;
    return b;
  }

  void end_window() override {
    const auto& clk = sys_->platform.clock();
    start_us_.clear();
    for (cycles_t c : sink_.v) start_us_.push_back(clk.cycles_to_us(c));
    sink_.on = false;
    auto& k = sys_->kernel;
    Digest d;
    d.mix(clk.now());
    d.mix(k.vm_switch_count());
    d.mix(k.vm_switch_cycles_total());
    d.mix(k.asid_generation());
    d.mix(k.asid_rollovers());
    d.mix(k.vms_destroyed());
    d.mix(k.lazy_space_faults());
    d.mix(k.heap().bytes_live());
    d.mix(k.heap().live_blocks());
    for (cycles_t c : sink_.v) d.mix(c);
    digest_ = d.h;
  }

  u64 digest() const override { return digest_; }
  u64 pinned_digest() const override { return 0x587e222d4cff26dcull; }

  std::vector<double> op_latency_us() const override { return start_us_; }

  u64 attempted() const override { return ops_; }
  u64 failed() const override { return destroy_failures_; }

  // Destroys every VM: after all the churn, the kernel heap must be back to
  // its empty-kernel state, byte for byte.
  void gate(Gate& g) override {
    g.check("density.new_vms_dispatched", sink_.v.size() >= kChurn);
    for (nova::PdId id : sys_->live)
      destroy_failures_ += sys_->kernel.destroy_vm(id) ? 0 : 1;
    sys_->live.clear();
    const auto& heap = sys_->kernel.heap();
    g.check("density.destroy_vm_succeeds", destroy_failures_ == 0);
    g.check("density.heap_flat_after_churn",
            heap_empty_ == std::array<u32, 2>{heap.bytes_live(), heap.live_blocks()});
  }

  void report(Metrics& human, Metrics& layer) override {
    human["vm_start_us_p50"] = percentile(start_us_, 50);
    human["vm_start_us_p98"] = percentile(start_us_, 98);
    layer["nova.heap_bytes_per_vm"] = heap_per_vm_;
  }

  Platform& platform() override { return sys_->platform; }
  nova::Kernel& kernel() override { return sys_->kernel; }
  // Only VMs inside the physical slab window can be given an address space.
  nova::ProtectionDomain& probe_pd() override {
    for (nova::PdId id : sys_->live) {
      nova::ProtectionDomain* pd = sys_->kernel.pd_by_id(id);
      if (pd->vm_index < nova::kVmMaxSlots) return *pd;
    }
    return *sys_->kernel.pd_by_id(sys_->live.front());
  }
  // The guests touch no memory; probe one page of a VM's data section.
  u32 probe_bytes() const override { return 4096; }

 private:
  void create(TimedGuest::Sink* sink, u32 parent) {
    char name[24];
    std::snprintf(name, sizeof name, "d%u", next_name_++);
    const u32 eighths = 2 + u32(rng_.next() % 7);  // 2..8 eighths of a budget
    auto g = std::make_unique<TimedGuest>(
        std::make_unique<DensityGuest>(eighths), TimedGuest::Record::kFirstStep,
        sink, sys_->platform.clock().now());
    SpanScope s(SpanName::kCreateVm, parent);
    sys_->live.push_back(sys_->kernel.create_vm(name, 1, std::move(g)).id());
  }

  std::unique_ptr<System> sys_;
  util::Xoshiro256 rng_{1};
  u32 next_name_ = 0;
  double heap_per_vm_ = 0;
  TimedGuest::Sink sink_;
  u64 ops_ = 0, destroy_failures_ = 0;
  std::array<u32, 2> heap_empty_{};
  std::vector<double> start_us_;
  u64 digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_density() { return std::make_unique<Density>(); }

}  // namespace perfbench
