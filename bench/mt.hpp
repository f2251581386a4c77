// Host-parallel execution points for run_all's "mt" JSON section: the same
// compute-heavy SMP configuration run at 1, 2 and 4 host threads.
//
// Two numbers matter (DESIGN.md §14):
//   * sim_digest — an FNV fold of every simulated quantity (final clock,
//     VM switches, per-core counters, per-guest checksums). It must be
//     IDENTICAL at every thread count; check_table3.py fails the build on
//     any divergence.
//   * host_seconds — wall clock per point. The threads=4 point must reach
//     the golden speedup floor over threads=1 when the host has the cores
//     for it (check_table3.py skips the throughput gate, with a note, on
//     smaller machines).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nova/inspector.hpp"
#include "nova/kernel.hpp"
#include "util/fnv.hpp"
#include "workloads/compute.hpp"

namespace minova::bench {

struct MtPoint {
  u32 cores = 4;
  u32 threads = 1;
  double host_seconds = 0;
  double sim_us = 0;
  u64 sim_digest = 0;  // must be thread-count-invariant
  double sim_us_per_host_s() const {
    return host_seconds > 0 ? sim_us / host_seconds : 0.0;
  }
};

// Compute-saturated SMP run: two stream guests per simulated core, a wide
// sync window so batch items are fat enough to amortize the pool handoff.
inline MtPoint run_mt_point(u32 cores, u32 threads, double sim_ms,
                            u64 seed = 42) {
  Platform platform;
  nova::KernelConfig cfg;
  cfg.num_cores = cores;
  cfg.host_threads = threads;
  cfg.quantum_ms = 1.0;
  cfg.smp_window_us = 200.0;
  nova::Kernel kernel(platform, cfg);
  std::vector<workloads::StreamComputeGuest*> guests;
  for (u32 i = 0; i < cores * 2; ++i) {
    workloads::StreamComputeConfig gc;
    gc.seed = seed + i;
    auto g = std::make_unique<workloads::StreamComputeGuest>(gc);
    guests.push_back(g.get());
    kernel.create_vm("mt" + std::to_string(i), 1, std::move(g));
  }
  detail::HostTimer timer;
  kernel.run_for_us(sim_ms * 1000.0);

  MtPoint p;
  p.cores = cores;
  p.threads = threads;
  p.host_seconds = timer.elapsed_s();
  p.sim_us = sim_ms * 1000.0;
  nova::KernelInspector insp(kernel);
  util::Fnv1a d;
  d.mix(platform.clock().now());
  d.mix(insp.vm_switches());
  d.mix(insp.hypercalls());
  for (u32 c = 0; c < insp.num_cores(); ++c) {
    const auto cv = insp.core(c);
    d.mix(cv.local_now());
    d.mix(cv.ipis_sent());
    d.mix(cv.steals());
    d.mix(cv.vm_switches());
  }
  for (const auto* g : guests) {
    d.mix(g->checksum());
    d.mix(g->steps());
  }
  p.sim_digest = d.h;
  return p;
}

}  // namespace minova::bench
