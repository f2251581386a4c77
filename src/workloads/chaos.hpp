// Chaos guest — a fuzzing workload that drives the full hypercall ABI with
// a seeded, randomized-but-valid operation stream.
//
// Where the other workloads model real applications (ADPCM/GSM pipelines,
// the Thw dispatch pattern), the chaos guest exists to compose *kernel
// mechanisms* adversarially: it maps and unmaps pages, flips its privilege
// mode, reprotects memory it then touches (taking the forwarded fault),
// reconfigures its virtual timer, requests/releases DPR hardware tasks and
// programs their register groups (including deliberately out-of-window DMA
// addresses the hwMMU must block), exchanges IVC messages, and sprinkles
// invalid arguments to exercise every error path. All decisions come from
// one Xoshiro stream per guest, so a scenario seed replays bit-identically.
//
// The stream is *valid by construction* at the ABI level: every hypercall
// is well-formed enough that the kernel must either serve it or reject it
// with a defined status — never corrupt global state. The fuzzer's
// invariant suite (src/fuzz) checks exactly that after every trap exit.
#pragma once

#include <vector>

#include "hwtask/library.hpp"
#include "nova/guest_iface.hpp"
#include "util/rng.hpp"

namespace minova::workloads {

struct ChaosConfig {
  u64 seed = 1;
  // Feature gates (the shrinker prunes event streams by clearing these).
  bool mem_ops = true;
  bool hwtask_ops = true;
  bool ivc_ops = true;
  // PRR-scheduler surface: setprio/quota sub-ops plus queued-grant polling
  // (kHwGrantQueued handling). Adds two faces to the held-task dice, so
  // enabling it changes the RNG stream; disabled runs draw exactly the
  // legacy stream and keep their digests.
  bool sched_ops = false;
  u32 max_ops_per_step = 4;
  // IVC channel ids this guest may send/recv on.
  std::vector<u32> ivc_channels;
  // Hardware task ids this guest may request.
  std::vector<hwtask::TaskId> tasks;
  u32 vtimer_period_us = 1000;
  // Probability that the next step is a pure-compute burst the SMP engine
  // may run on a host worker thread (DESIGN.md §14). 0 disables the
  // feature entirely — no extra RNG draws, so existing seed digests are
  // untouched.
  double compute_fraction = 0.0;
  // Probability per step of a fault-seeking behaviour (DESIGN.md §16):
  // wild jump / deliberate undefined instruction / wild store (each a
  // fatal trap — with a supervisor the VM is contained and halts; without
  // one the trap is forwarded and the guest staggers on), a no-yield spin
  // burst (watchdog bait: hundreds of steps that burn the whole budget
  // without a hypercall or yield, ignoring vIRQs like a truly hung guest),
  // or a kSvcHealthQuery self-poll. 0 disables the feature with no extra
  // RNG draws, so every existing seed digest is untouched.
  double crash_fraction = 0.0;
};

struct ChaosStats {
  u64 ops = 0;
  u64 hypercalls = 0;
  u64 ok = 0;        // kSuccess results
  u64 rejected = 0;  // any error status (including kDenied)
  u64 faults = 0;    // forwarded guest faults taken
  u64 virqs = 0;
  u64 maps = 0;
  u64 hw_grants = 0;
  u64 hw_releases = 0;
  u64 jobs_started = 0;
  u64 ivc_sends = 0;
  u64 ivc_recvs = 0;
  // PRR-scheduler surface (all zero unless ChaosConfig::sched_ops).
  u64 hw_queued = 0;       // grants parked on the admission queue
  u64 hw_regrants = 0;     // queued grants observed to complete
  u64 hw_setprios = 0;     // priority sub-ops issued
  u64 hw_quota_polls = 0;  // quota sub-ops issued
  // Fault-seeking surface (all zero unless ChaosConfig::crash_fraction).
  u64 crash_wild_jumps = 0;   // prefetch-abort fatals raised
  u64 crash_undefs = 0;       // undefined-instruction fatals raised
  u64 crash_wild_stores = 0;  // data-abort fatals raised
  u64 spin_bursts = 0;        // no-yield spin bursts begun
  u64 health_polls = 0;       // kSvcHealthQuery self-polls issued
};

class ChaosGuest final : public nova::GuestOs {
 public:
  /// VA window the guest uses for dynamic map/unmap traffic. Unmapped at
  /// boot; sits between the hardware-task data section and the first free
  /// megabyte so invariant scanners can bound their sweep.
  static constexpr vaddr_t kScratchVa = 0x00C0'0000u;
  static constexpr u32 kScratchPages = 64;

  explicit ChaosGuest(ChaosConfig cfg);

  const char* guest_name() const override { return "chaos"; }
  void boot(nova::GuestContext& ctx) override;
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override;
  void on_virq(nova::GuestContext& ctx, u32 irq) override;
  bool next_step_is_compute() const override { return next_compute_; }

  const ChaosStats& stats() const { return stats_; }

  /// Scenario wiring: IVC channels are created after the guest is attached
  /// to its PD (channel ids depend on creation order), so the runner adds
  /// them here before the kernel first schedules the VM.
  void add_ivc_channel(u32 ch) { cfg_.ivc_channels.push_back(ch); }

 private:
  nova::HypercallResult hc(nova::GuestContext& ctx, nova::Hypercall n,
                           u32 r0 = 0, u32 r1 = 0, u32 r2 = 0, u32 r3 = 0);
  void op_memory(nova::GuestContext& ctx);
  void op_cache(nova::GuestContext& ctx);
  void op_irq(nova::GuestContext& ctx);
  void op_reg_io(nova::GuestContext& ctx);
  void op_hwtask(nova::GuestContext& ctx);
  void op_ivc(nova::GuestContext& ctx);
  void touch_memory(nova::GuestContext& ctx);
  void program_job(nova::GuestContext& ctx);
  void compute_burst(nova::GuestContext& ctx, cycles_t budget);
  /// One fault-seeking act; true when a fatal was contained (the step must
  /// return StepExit::kHalt — the supervisor reaps this VM).
  bool crash_act(nova::GuestContext& ctx);
  void spin(nova::GuestContext& ctx, cycles_t budget);

  ChaosConfig cfg_;
  util::Xoshiro256 rng_;
  ChaosStats stats_;
  u64 mapped_ = 0;  // bitmask over the scratch pages this guest mapped
  bool in_kernel_ = true;
  hwtask::TaskId held_task_ = hwtask::kInvalidTask;
  bool sw_fallback_ = false;
  bool queued_ = false;  // grant parked on the manager's admission queue
  u32 spin_steps_ = 0;   // remaining no-yield spin-burst steps
  bool next_compute_ = false;
  u64 burst_pos_ = 0;
  u64 burst_sum_ = 0;
};

}  // namespace minova::workloads
