// Seeded scenario generation and execution.
//
// One scenario = one seed. Everything about the run — VM count, per-VM
// priorities and chaos-guest behaviour, the kernel's quantum, IVC wiring
// and the fault-injection schedule — derives deterministically from the
// seed, so a failing {seed, step} pair is a complete reproducer: rerunning
// the same options replays the identical instruction-for-instruction
// simulation and fails at the same step with the same digest.
//
// The shrinker relies on two structural properties of the derivation:
//   * per-VM parameters come from independent splitmix streams keyed on
//     (seed, vm index), so deactivating one VM (active_mask) does not
//     change the remaining VMs' derived behaviour;
//   * feature gates (faults / hwtask / ivc / mem_ops) prune whole event
//     classes without re-deriving anything else.
#pragma once

#include <string>
#include <vector>

#include "fuzz/invariants.hpp"

namespace minova::fuzz {

struct ScenarioOptions {
  u64 seed = 1;
  /// Trap-exit/VM-switch events to observe before declaring the run clean.
  u64 max_steps = 5000;

  // Feature gates — the shrinker clears these to prune event classes.
  bool faults = true;   // seed-derived fault-injection probabilities (PR 1)
  bool hwtask = true;   // chaos guests issue DPR task traffic
  bool ivc = true;      // wire IVC channels between the VMs
  bool mem_ops = true;  // chaos guests issue map/unmap/protect traffic
  /// VM lifecycle churn: dynamic VMs are created lazily and destroyed
  /// between time slices (kernel runs with lazy_vm_boot), exercising slab
  /// recycling, ASID generations, and the object-leak oracle. Dynamic VMs
  /// get no IVC channels — a recycled PdId must not inherit channel
  /// membership from a destroyed predecessor.
  bool lifecycle = false;

  /// 0 derives 2..8 from the seed; the shrinker pins the derived value via
  /// `normalized` before pruning.
  u32 num_vms = 0;
  /// Which of the derived VM slots to instantiate (bit i = VM i).
  u32 active_mask = 0xFF;

  /// Simulated cores the kernel multiplexes (1 = the classic unicore
  /// configuration; the kernel clamps to [1, 8]). SMP runs exercise work
  /// stealing, IPIs and cross-core TLB shootdown, and arm three extra
  /// oracles (core-partition, shootdown-complete, core-exclusivity).
  u32 num_cores = 1;

  /// Host threads executing the SMP compute batch (KernelConfig::
  /// host_threads). Pure host-speed knob: the digest of a scenario is
  /// identical at any value — that is the property the MT differential
  /// shards assert.
  u32 host_threads = 1;
  /// Give the chaos guests pure-compute burst steps (ChaosConfig::
  /// compute_fraction = 0.4) so SMP runs actually exercise the parallel
  /// batch path. Changes the RNG stream, so digests differ from
  /// compute-off runs of the same seed (but stay deterministic).
  bool compute = false;

  /// Self-test hook: at this step (1-based, 0 = never) the runner corrupts
  /// state from inside the introspection hook, so an invariant failure is
  /// *guaranteed* at exactly that step — the mechanism behind the
  /// injected-failure replay and shrink acceptance tests.
  u64 sabotage_step = 0;
  /// The oracle the `sabotage_step` mutant must trip. kQuantumBound
  /// corrupts a scheduler field; the SMP, PRR-scheduler and supervisor
  /// oracles each have a component mutant (the SMP ones need num_cores >=
  /// 2, the sv-* ones `supervisor`). Any other oracle, or an sv-* oracle
  /// without a supervisor, falls back to the quantum-bound mutant.
  Oracle sabotage_oracle = Oracle::kQuantumBound;
  /// PRR-scheduler shards: turn on the manager's opt-in scheduler
  /// (priorities + preemptive reclaim, bitstream cache with prefetch,
  /// per-VM quotas, admission queue) and give the chaos guests the
  /// setprio/quota/queued-poll surface. Changes the RNG streams, so digests
  /// differ from legacy runs of the same seed (but stay deterministic);
  /// off keeps every pre-scheduler digest bit-identical.
  bool hw_sched = false;
  /// Supervisor shards (DESIGN.md §16): run the kernel with the VM
  /// supervisor enabled, watch every static chaos VM (with a restart
  /// factory and IVC rebinding), and give the guests fault-seeking
  /// behaviour (ChaosConfig::crash_fraction) — wild jumps, undefined
  /// instructions, wild stores, no-yield spin bursts, health self-polls.
  /// Arms the three sv-* oracles. Changes the RNG streams, so digests
  /// differ from legacy runs of the same seed (but stay deterministic);
  /// off keeps every pre-supervisor digest bit-identical.
  bool supervisor = false;
};

/// Pin every seed-derived top-level choice (currently `num_vms`) so later
/// option edits (pruning) cannot re-derive them differently.
ScenarioOptions normalized(const ScenarioOptions& opts);

struct FuzzResult {
  bool failed = false;
  u64 seed = 0;
  /// 1-based index of the kernel event (trap exit / VM switch) at which the
  /// first violation was observed.
  u64 step = 0;
  std::vector<Violation> violations;
  /// FNV-1a digest: for failing runs, over the failure state captured at
  /// the violating step (bit-identical across replays of the same options);
  /// for clean runs, over the end-of-run counters.
  u64 digest = 0;

  u64 steps = 0;  // events observed
  u64 vm_switches = 0;
  u64 hypercalls = 0;
  std::string report;  // human-readable summary (failure: includes trace)
};

/// Build the scenario for `opts` and run it to completion (violation,
/// max_steps, or the simulated-time ceiling — whichever first).
FuzzResult run_scenario(const ScenarioOptions& opts);

/// One-line description of a scenario's options (reports / CI artifacts).
std::string describe(const ScenarioOptions& opts);

}  // namespace minova::fuzz
