// SMP scaling points for run_all's "smp" JSON section: the
// Table III 4-guest configuration re-run with the kernel sliced across
// 1..8 simulated cores. The cores=1 point must be bit-identical to the
// plain Table III 4-guest row — that is the SMP refactor's regression
// gate, asserted by bench/check_table3.py.
#pragma once

#include "harness.hpp"

namespace minova::bench {

struct SmpPoint {
  u32 cores = 1;
  Measurement m;
  // SMP protocol volume (simulated, deterministic).
  u64 ipis_sent = 0;
  u64 steals = 0;
  u64 shootdowns_sent = 0;
  u64 shootdown_acks = 0;
  u64 cross_core_irqs = 0;
  u64 vm_switches = 0;
};

inline SmpPoint run_smp_point(u32 cores, double sim_ms, u64 seed = 42) {
  ucos::SystemConfig cfg;
  cfg.kernel.num_cores = cores;
  cfg.num_guests = 4;
  cfg.seed = seed;
  auto sys = std::make_unique<ucos::VirtualizedSystem>(cfg);
  SmpPoint p;
  p.cores = cores;
  p.m = measure(*sys, sim_ms);
  auto& stats = sys->kernel().platform().stats();
  p.ipis_sent = stats.counter("kernel.ipi.sent");
  p.steals = stats.counter("kernel.smp.steals");
  p.shootdowns_sent = sys->kernel().shootdowns_sent();
  p.shootdown_acks = stats.counter("kernel.smp.shootdown_acks");
  p.cross_core_irqs = stats.counter("kernel.irq.cross_core");
  p.vm_switches = sys->kernel().vm_switch_count();
  return p;
}

}  // namespace minova::bench
