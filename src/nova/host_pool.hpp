// A tiny persistent worker pool for the SMP batch phase (DESIGN.md §14).
//
// The kernel's round engine collects one independent compute step per
// simulated core, then executes the whole batch at once: `run(n, fn)` runs
// fn(0) .. fn(n-1) across the workers plus the calling thread and returns
// only when every item has completed. Item i runs on its home thread
// i mod T (T = workers + 1, the caller is thread 0); the items themselves
// must be (and are, by the engine's lane isolation) mutually independent.
//
// Synchronization contract (ThreadSanitizer-clean by construction): each
// round is two phases of one std::barrier. run() writes fn and n before it
// arrives at the start phase, and every thread reads them only after that
// phase completes; every item's writes come before its thread arrives at the
// finish phase, which completes before run() returns. A barrier phase
// orders every arrival before every return from it, so both hand-offs are
// happens-before edges.
#pragma once

#include <barrier>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/types.hpp"

namespace minova::nova {

class HostPool {
 public:
  /// Spawn `workers` persistent host threads (the caller of run()
  /// participates too, so total parallelism is workers + 1).
  explicit HostPool(u32 workers);
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Execute fn(0) .. fn(n-1), each exactly once, across the pool and the
  /// calling thread. Blocks until all are done. Not reentrant.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void run_home(std::size_t thread);

  std::barrier<> phase_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace minova::nova
