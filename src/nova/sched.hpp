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

#include <array>
#include <bit>
#include <cstddef>

#include "nova/pd.hpp"
#include "util/types.hpp"

namespace minova::nova {

class Scheduler {
 public:
  static constexpr u32 kNumPriorities = 8;

  /// One FIFO, threaded through ProtectionDomain::sched_prev/sched_next.
  struct Queue {
    ProtectionDomain* head = nullptr;
    ProtectionDomain* tail = nullptr;
  };

  /// Read-only front-to-back view of a queue (KernelInspector / fuzzer
  /// oracles / tests).
  class QueueView {
   public:
    class iterator {
     public:
      explicit iterator(ProtectionDomain* pd = nullptr) : pd_(pd) {}
      ProtectionDomain* operator*() const { return pd_; }
      iterator& operator++() {
        pd_ = pd_->sched_next;
        return *this;
      }
      bool operator==(const iterator&) const = default;

     private:
      ProtectionDomain* pd_ = nullptr;
    };

    explicit QueueView(const Queue& q) : q_(&q) {}
    iterator begin() const { return iterator(q_->head); }
    iterator end() const { return iterator(); }
    ProtectionDomain* front() const { return q_->head; }
    ProtectionDomain* back() const { return q_->tail; }

   private:
    const Queue* q_;
  };

  explicit Scheduler(cycles_t default_quantum)
      : default_quantum_(default_quantum), stamp_(next_stamp()) {}

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

  /// A PD another core may steal: scanned from the highest non-empty level
  /// down, from the *back* of each level (the coldest entries — the ones
  /// farthest from dispatch on this core). Returns nullptr when nothing
  /// eligible is queued. Does not modify the queue.
  template <typename Eligible>
  ProtectionDomain* steal_candidate(Eligible eligible) const {
    for (u32 bits = nonempty_; bits != 0;) {
      const u32 p = top_level(bits);
      for (ProtectionDomain* pd = levels_[p].tail; pd; pd = pd->sched_prev)
        if (eligible(pd)) return pd;
      bits &= ~(1u << p);
    }
    return nullptr;
  }

  /// Highest-priority runnable PD satisfying `eligible`, or nullptr. Visits
  /// only non-empty levels; when the head of the highest one qualifies this
  /// is a single head load.
  template <typename Eligible>
  ProtectionDomain* pick_eligible(Eligible eligible) const {
    for (u32 bits = nonempty_; bits != 0;) {
      const u32 p = top_level(bits);
      for (ProtectionDomain* pd = levels_[p].head; pd; pd = pd->sched_next)
        if (eligible(pd)) return pd;
      bits &= ~(1u << p);
    }
    return nullptr;
  }

  /// Quantum of `pd` expired: re-arm and rotate its level.
  void rotate(ProtectionDomain* pd);

  bool is_runnable(const ProtectionDomain* pd) const;
  bool is_suspended(const ProtectionDomain* pd) const;

  cycles_t default_quantum() const { return default_quantum_; }
  /// This instance's process-unique stamp (see next_stamp()).
  u64 stamp() const { return stamp_; }

  std::size_t runnable_count() const;

  /// Read-only queue views (KernelInspector / fuzzer oracles).
  QueueView level_queue(u32 prio) const { return QueueView(levels_[prio]); }
  QueueView suspended_queue() const { return QueueView(suspended_); }

 private:
  static u32 top_level(u32 bits) { return u32(std::bit_width(bits)) - 1; }

  /// Process-unique instance stamp. PDs scope their membership flags to one
  /// scheduler via this stamp rather than the instance address: a fresh
  /// scheduler constructed at a recycled address must not inherit stale
  /// membership claims. Safe to call from any host thread.
  static u64 next_stamp();
  void adopt(ProtectionDomain* pd) const;
  /// Unlink `pd` from whichever of this scheduler's queues holds it.
  void detach(ProtectionDomain* pd);
  void push_level(ProtectionDomain* pd);

  cycles_t default_quantum_;
  u64 stamp_;
  std::array<Queue, kNumPriorities> levels_{};
  Queue suspended_;
  /// Bit p set <=> levels_[p] is non-empty.
  u32 nonempty_ = 0;
};

}  // namespace minova::nova
