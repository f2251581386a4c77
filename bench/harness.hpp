// Shared measurement harness for run_all's Table III, Fig. 9, SMP and claim
// runs: runs the paper's Fig. 8 setup (native, or N paravirtualized guests)
// and collects the hardware-task-management latencies.
//
// The harness is self-timing: every run records host wall-clock seconds
// alongside the simulated time, so run_all can report the simulation rate
// (simulated us per host second). Host timing never feeds back into the
// simulation — simulated numbers stay bit-identical regardless of how fast
// the host executes them (DESIGN.md §10).
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "ucos/native.hpp"
#include "ucos/system.hpp"

namespace minova::bench {

struct Measurement {
  double entry = 0, exit = 0, irq_entry = 0, exec = 0, total = 0;
  std::size_t samples = 0;
  // Trap accounting (virtualized runs only): how many kernel entries the
  // latencies above amortize over. Native runs take no traps.
  u64 hypercalls = 0, irq_traps = 0;
  // Memory fast-path health: hit rates of each level the simulated access
  // path traverses (micro-TLB -> main TLB -> L1D -> L2), plus TLB
  // maintenance traffic. Simulated quantities — identical across hosts.
  double utlb_hit_rate = 0, tlb_hit_rate = 0;
  double l1d_hit_rate = 0, l2_hit_rate = 0;
  u64 tlb_va_flushes = 0;
  // Host-side self-timing: wall-clock cost of this run and the resulting
  // simulation rate (simulated microseconds per host second).
  double host_seconds = 0;
  double sim_us = 0;
  double sim_us_per_host_s() const {
    return host_seconds > 0 ? sim_us / host_seconds : 0.0;
  }
};

namespace detail {

/// Monotonic host stopwatch wrapped around a run.
class HostTimer {
 public:
  HostTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void collect_memory_rates(Measurement& m, cpu::Core& core) {
  const auto& ts = core.tlb().stats();
  m.tlb_hit_rate = ts.hit_rate();
  m.tlb_va_flushes = ts.va_flushes;
  m.utlb_hit_rate = core.mmu().micro_stats().hit_rate();
  const auto& l1d = core.caches().l1d().stats();
  m.l1d_hit_rate = 1.0 - l1d.miss_rate();
  const auto& l2 = core.caches().l2().stats();
  m.l2_hit_rate = 1.0 - l2.miss_rate();
}

}  // namespace detail

/// Serializes build(): one mutex for every type built.
inline std::mutex build_mutex;

/// Constructs a system object. Kernel construction draws a scheduler stamp
/// from a process-wide counter that is not synchronized (nova/sched.cpp), so
/// systems are built one at a time even when they then run on parallel host
/// threads.
template <typename T, typename... Args>
std::unique_ptr<T> build(Args&&... args) {
  std::lock_guard lock(build_mutex);
  return std::make_unique<T>(std::forward<Args>(args)...);
}

/// Runs `sys` for `sim_ms` and reads the Table III latencies, trap counts
/// and memory hit rates.
inline Measurement measure(ucos::VirtualizedSystem& sys, double sim_ms) {
  detail::HostTimer timer;
  sys.run_for_us(sim_ms * 1000.0);
  Measurement m;
  m.host_seconds = timer.elapsed_s();
  m.sim_us = sim_ms * 1000.0;
  auto& lat = sys.kernel().hwmgr_latencies();
  if (lat.entry_us.count() > 0) {
    m.entry = lat.entry_us.mean();
    m.exit = lat.exit_us.mean();
    m.exec = lat.exec_us.mean();
    m.total = lat.total_us.mean();
    m.samples = lat.entry_us.count();
  }
  if (lat.pl_irq_entry_us.count() > 0)
    m.irq_entry = lat.pl_irq_entry_us.mean();
  auto& stats = sys.kernel().platform().stats();
  m.hypercalls = stats.counter("kernel.trap.hypercall");
  m.irq_traps = stats.counter("kernel.trap.irq");
  detail::collect_memory_rates(m, sys.kernel().platform().cpu());
  return m;
}

inline Measurement run_native(double sim_ms, u64 seed) {
  Platform platform;
  ucos::GuestConfig cfg;
  cfg.seed = seed;
  ucos::NativeSystem sys(platform, cfg);
  detail::HostTimer timer;
  sys.run_for_us(sim_ms * 1000.0);
  Measurement m;
  m.host_seconds = timer.elapsed_s();
  m.sim_us = sim_ms * 1000.0;
  auto& exec = sys.allocator().exec_us();
  if (exec.count() > 0) m.exec = exec.mean();
  m.total = m.exec;  // direct function call: no entry/exit/IRQ overhead
  m.samples = exec.count();
  detail::collect_memory_rates(m, platform.cpu());
  return m;
}

inline Measurement run_virtualized(u32 guests, double sim_ms, u64 seed) {
  ucos::SystemConfig cfg;
  cfg.num_guests = guests;
  cfg.seed = seed;
  return measure(*build<ucos::VirtualizedSystem>(cfg), sim_ms);
}

}  // namespace minova::bench
