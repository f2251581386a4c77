// Shared pieces of the four benchmark workloads: the workload interface
// main.cpp runs, the step-timing GuestOs decorator, the simulated digest, the
// per-layer counter snapshot and the access-chain / hypercall probes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "hwmgr/manager.hpp"
#include "nova/kernel.hpp"
#include "tracer.hpp"

namespace perfbench {

using minova::cycles_t;
using minova::u32;
using minova::u64;

/// FNV-1a over 64-bit words: folds simulated quantities into one digest.
struct Digest {
  u64 h = 0xCBF2'9CE4'8422'2325ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFu;
      h *= 0x0000'0100'0000'01B3ull;
    }
  }
  void mix_double(double d);
};

/// One unit of timed work: `sim_us` simulated in `host_s` host seconds, of
/// which `ops` closed-loop operations took `ops_host_s` (the whole block,
/// except on density_churn, where the ops are the churn phase alone).
struct Block {
  double host_s = 0;
  double sim_us = 0;
  double ops = 0;
  double ops_host_s = 0;
};

/// Forwards every GuestOs call to the wrapped guest, counts steps, times each
/// step as a `guest.step` span in the traced run (the span includes any trap
/// taken inside the step) and records simulated scheduling samples: the
/// first-step delay of a new VM, or how long the guest waited off-CPU
/// between two steps (back-to-back steps record nothing).
class TimedGuest final : public minova::nova::GuestOs {
 public:
  enum class Record : minova::u8 { kNone, kFirstStep, kWaits };
  /// Where samples go. A sink is written only by the thread stepping its
  /// guests: one sink per guest when steps run on host worker threads.
  struct Sink {
    std::vector<cycles_t> v;
    bool on = true;
  };

  TimedGuest(std::unique_ptr<minova::nova::GuestOs> inner, Record rec = Record::kNone,
             Sink* sink = nullptr, cycles_t created_at = 0)
      : inner_(std::move(inner)), rec_(rec), sink_(sink),
        created_at_(created_at) {}

  const char* guest_name() const override { return inner_->guest_name(); }
  void boot(minova::nova::GuestContext& ctx) override { inner_->boot(ctx); }
  minova::nova::StepExit step(minova::nova::GuestContext& ctx,
                              cycles_t budget) override;
  void on_virq(minova::nova::GuestContext& ctx, u32 irq) override {
    inner_->on_virq(ctx, irq);
  }
  bool next_step_is_compute() const override {
    return inner_->next_step_is_compute();
  }

  u64 steps() const { return steps_; }

 private:
  std::unique_ptr<minova::nova::GuestOs> inner_;
  Record rec_;
  Sink* sink_;
  cycles_t created_at_;
  cycles_t last_end_ = 0;
  u64 steps_ = 0;
};

/// Correctness checks of one run. Every failed check counts as a failed
/// operation and makes the run incorrect.
struct Gate {
  std::vector<std::pair<std::string, bool>> checks;
  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  u64 failures() const;
};

using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Build platform, kernel, manager and VMs, then warm up (timed: setup_s).
  /// Called once per system; teardown() destroys it.
  virtual void setup(u64 seed) = 0;
  /// Destroy the live system (kept out of the setup timing).
  virtual void teardown() = 0;
  /// True once the `blocks` run so far make up the fixed simulated window:
  /// the digest and the simulated latency samples are taken at its end, so
  /// they repeat exactly at a fixed seed however long the host run is.
  virtual bool window_complete(u32 blocks) const = 0;
  /// Called once, right before the timed phase (baselines for deltas).
  virtual void begin_timed() = 0;
  virtual Block run_block() = 0;
  /// Called once, right after the window's last block.
  virtual void end_window() = 0;
  virtual u64 digest() const = 0;
  /// The pinned digest at the default seed.
  virtual u64 pinned_digest() const = 0;
  /// Simulated latency (µs) of the workload's closed-loop operation, over
  /// the window (see README.md for what the operation is per workload).
  virtual std::vector<double> op_latency_us() const = 0;
  /// Operations attempted and failed over the whole timed phase.
  virtual u64 attempted() const = 0;
  virtual u64 failed() const = 0;
  /// Workload-specific correctness checks, after the timed phase.
  virtual void gate(Gate& g) = 0;
  /// Workload-specific numbers for the human-readable report (names as
  /// README.md uses them) and the per-layer report.
  virtual void report(Metrics& human, Metrics& layer) = 0;

  virtual minova::Platform& platform() = 0;
  virtual minova::nova::Kernel& kernel() = 0;
  /// Guest whose address space the access probes read, and the size of
  /// the window of its hardware-task data section the workload touches.
  virtual minova::nova::ProtectionDomain& probe_pd() = 0;
  virtual u32 probe_bytes() const = 0;
  /// Host threads the kernel runs on (1 except smp_compute).
  virtual u32 host_threads() const { return 1; }
};

std::unique_ptr<Workload> make_fig8();
std::unique_ptr<Workload> make_smp();
std::unique_ptr<Workload> make_density();
std::unique_ptr<Workload> make_prr();

/// Simulator counters that per-layer metrics are read from, summed over
/// every lane. Take one before and one after the timed phase.
std::map<std::string, u64> snapshot_counters(minova::nova::Kernel& kernel);

/// Time `Kernel::run_for_us(us)` as one `nova.run_for_us` span.
void traced_run_for_us(minova::nova::Kernel& kernel, double us);

/// Host ns/op of each access-chain level and of a bare reg_read hypercall,
/// measured on the warmed system over a seeded address stream. Mutates
/// simulated state: run only after the digest and counters are taken.
void run_probes(Workload& w, u64 seed, Metrics& layer);

/// The `hwmgr.*` per-layer counts: `now - base`, with the cache hit ratio
/// and its base (lookups).
void report_manager(const minova::hwmgr::ManagerStats& now,
                    const minova::hwmgr::ManagerStats& base, Metrics& layer);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);
/// Percentile in [0,100] with linear interpolation (0 when empty).
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
