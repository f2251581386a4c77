// Preemptive priority-based round-robin scheduler (paper §III.D, Fig. 3).
//
// PDs are organized into a run queue and a suspend queue. The run queue is
// an array of circular lists, one per priority level; the scheduler always
// dispatches from the highest non-empty level and rotates within a level
// when a time quantum expires. A preempted PD keeps its remaining quantum
// so its total slice stays constant (§III.D); a PD whose quantum expired is
// re-armed with the full quantum and moved to the back of its level.
// User services (e.g. the Hardware Task Manager) normally sit in the
// suspend queue and are enqueued only when invoked.
#pragma once

#include <list>
#include <vector>

#include "nova/pd.hpp"
#include "util/types.hpp"

namespace minova::nova {

class Scheduler {
 public:
  static constexpr u32 kNumPriorities = 8;

  explicit Scheduler(cycles_t default_quantum)
      : default_quantum_(default_quantum),
        stamp_(next_stamp()),
        levels_(kNumPriorities) {}

  /// Add a PD to the run queue (at the back of its priority level). Arms a
  /// fresh quantum when none is pending.
  void enqueue(ProtectionDomain* pd);

  /// Move a PD to the suspend queue (no CPU until re-enqueued).
  void suspend(ProtectionDomain* pd);

  /// Remove from both queues (halt).
  void remove(ProtectionDomain* pd);

  /// Detach a PD from this scheduler *without* touching its run state or
  /// remaining quantum — the SMP migration primitive. The caller re-homes
  /// the PD on another core's scheduler (enqueue preserves a nonzero
  /// quantum, so a stolen PD's total slice stays constant, §III.D).
  void take(ProtectionDomain* pd);

  /// A PD another core may steal: scanned from the highest priority level
  /// down, from the *back* of each level (the coldest entries — the ones
  /// farthest from dispatch on this core). Returns nullptr when nothing
  /// eligible is queued. Does not modify the queue.
  template <typename Eligible>
  ProtectionDomain* steal_candidate(Eligible eligible) const {
    for (u32 p = kNumPriorities; p-- > 0;)
      for (auto it = levels_[p].rbegin(); it != levels_[p].rend(); ++it)
        if (eligible(*it)) return *it;
    return nullptr;
  }

  /// Highest-priority runnable PD, or nullptr. Does not rotate.
  ProtectionDomain* pick();

  /// Highest-priority runnable PD satisfying `eligible`, or nullptr.
  template <typename Eligible>
  ProtectionDomain* pick_eligible(Eligible eligible) const {
    for (u32 p = kNumPriorities; p-- > 0;)
      for (ProtectionDomain* pd : levels_[p])
        if (eligible(pd)) return pd;
    return nullptr;
  }

  /// Quantum of `pd` expired: re-arm and rotate its level.
  void rotate(ProtectionDomain* pd);

  bool is_runnable(const ProtectionDomain* pd) const;
  bool is_suspended(const ProtectionDomain* pd) const;

  /// True when a runnable PD has higher priority than `pd`.
  bool higher_priority_ready(const ProtectionDomain* pd);

  cycles_t default_quantum() const { return default_quantum_; }

  std::size_t runnable_count() const;

  /// Read-only queue views (KernelInspector / fuzzer oracles).
  const std::list<ProtectionDomain*>& level_queue(u32 prio) const {
    return levels_[prio];
  }
  const std::list<ProtectionDomain*>& suspended_queue() const {
    return suspended_;
  }

 private:
  std::list<ProtectionDomain*>& level(u32 prio) { return levels_[prio]; }

  /// Process-unique instance stamp. PDs scope their membership flags to one
  /// scheduler via this stamp rather than the instance address: a fresh
  /// scheduler constructed at a recycled address must not inherit stale
  /// membership claims.
  static u64 next_stamp();
  void adopt(ProtectionDomain* pd) const;

  cycles_t default_quantum_;
  u64 stamp_;
  std::vector<std::list<ProtectionDomain*>> levels_;
  std::list<ProtectionDomain*> suspended_;
};

}  // namespace minova::nova
